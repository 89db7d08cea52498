package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleRecord(step int) Record {
	return Record{
		Step: step, TimeS: float64(step) * 0.5,
		BigPowerW: 2.5, LittlePowerW: 0.2, TempC: 55.5,
		BIPS: 5.25, BIPSBig: 4.5, BIPSLittle: 0.75,
		CmdBigCores: 4, CmdLittleCores: 4,
		CmdBigGHz: 1.8, CmdLittleGHz: 1.2,
		EffBigGHz: 1.8, EffLittleGHz: 1.2,
		ThreadsBig: 4,
		SupState:   "nominal",
		LatencyNS:  1234,
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Add(sampleRecord(i))
	}
	if r.Len() != 4 || r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Len=%d Total=%d Dropped=%d, want 4/10/6", r.Len(), r.Total(), r.Dropped())
	}
	for i := 0; i < r.Len(); i++ {
		if got := r.At(i).Step; got != 6+i {
			t.Fatalf("At(%d).Step = %d, want %d", i, got, 6+i)
		}
	}
}

func TestRecorderAddDoesNotAllocate(t *testing.T) {
	r := NewRecorder(16)
	rec := sampleRecord(0)
	allocs := testing.AllocsPerRun(100, func() {
		r.Add(rec)
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f objects per call, want 0", allocs)
	}
	fr := NewFleetRecorder(16)
	frec := FleetRecord{Step: 1, Node: "0/1"}
	if allocs := testing.AllocsPerRun(100, func() { fr.Add(frec) }); allocs != 0 {
		t.Fatalf("FleetRecorder.Add allocates %.1f objects per call, want 0", allocs)
	}
}

func TestWriteJSONLValidatesAndIsDeterministic(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		rec := sampleRecord(i)
		if i == 2 {
			rec.SupState = "fallback"
			rec.SupTripped = true
			rec.SupCause = "guardband"
			rec.FaultDropped = 3
		}
		r.Add(rec)
	}
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSONL exports of the same recorder differ")
	}
	if strings.Contains(a.String(), "lat_ns") {
		t.Fatal("JSONL carries lat_ns without IncludeLatency")
	}
	n, err := ValidateJSONL(&a)
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 5 {
		t.Fatalf("ValidateJSONL counted %d records, want 5", n)
	}
}

func TestWriteJSONLIncludeLatency(t *testing.T) {
	r := NewRecorder(4)
	r.IncludeLatency = true
	r.Add(sampleRecord(0))
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"lat_ns":1234`) {
		t.Fatalf("JSONL missing lat_ns: %s", buf.String())
	}
	if n, err := ValidateJSONL(&buf); err != nil || n != 1 {
		t.Fatalf("ValidateJSONL: n=%d err=%v", n, err)
	}
}

func TestWriteJSONLNaNBecomesNull(t *testing.T) {
	r := NewRecorder(4)
	rec := sampleRecord(0)
	rec.BigPowerW = math.NaN()
	rec.TempC = math.Inf(1)
	r.Add(rec)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"big_w":null`) || !strings.Contains(s, `"temp_c":null`) {
		t.Fatalf("non-finite floats not encoded as null: %s", s)
	}
	if n, err := ValidateJSONL(strings.NewReader(s)); err != nil || n != 1 {
		t.Fatalf("ValidateJSONL rejects null floats: n=%d err=%v", n, err)
	}
}

func TestValidateJSONLRejections(t *testing.T) {
	// Build one valid line to mutate.
	r := NewRecorder(1)
	r.Add(sampleRecord(0))
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	valid := strings.TrimSpace(buf.String())

	cases := map[string]string{
		"not JSON":      "nonsense",
		"unknown field": strings.Replace(valid, `"step":0`, `"step":0,"bogus":1`, 1),
		"missing field": strings.Replace(valid, `"step":0,`, ``, 1),
		"wrong type":    strings.Replace(valid, `"step":0`, `"step":"zero"`, 1),
		"non-integral":  strings.Replace(valid, `"step":0`, `"step":0.5`, 1),
		"enum":          strings.Replace(valid, `"sup_state":"nominal"`, `"sup_state":"confused"`, 1),
	}
	for name, line := range cases {
		if _, err := ValidateJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("%s: ValidateJSONL accepted %q", name, line)
		}
	}
	if n, err := ValidateJSONL(strings.NewReader(valid)); err != nil || n != 1 {
		t.Fatalf("control: valid line rejected: n=%d err=%v", n, err)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(4)
	rec := sampleRecord(0)
	rec.LittlePowerW = math.NaN()
	r.Add(rec)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	fields := SchemaFields()
	if len(header) != len(fields) || len(row) != len(fields) {
		t.Fatalf("CSV width %d/%d, want %d columns", len(header), len(row), len(fields))
	}
	byName := map[string]string{}
	for i, h := range header {
		byName[h] = row[i]
	}
	if byName["little_w"] != "NaN" {
		t.Fatalf("NaN float exported as %q, want NaN", byName["little_w"])
	}
	if byName["lat_ns"] != "1234" {
		t.Fatalf("lat_ns exported as %q, want 1234 (CSV always carries latency)", byName["lat_ns"])
	}
	if byName["sup_state"] != "nominal" {
		t.Fatalf("sup_state exported as %q, want unquoted nominal", byName["sup_state"])
	}
}

func TestTimeline(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 40; i++ {
		rec := sampleRecord(i)
		switch {
		case i == 10:
			rec.SupState = "fallback"
			rec.SupTripped = true
			rec.SupCause = "dropout"
		case i > 10 && i < 20:
			rec.SupState = "fallback"
		case i >= 20 && i < 25:
			rec.SupState = "recovering"
			rec.SupReengage = i == 20
		}
		if i == 12 {
			rec.FaultDropped = 2
		}
		r.Add(rec)
	}
	tl := r.Timeline(40)
	for _, want := range []string{"flight recorder: 40 records", "state", "T", "dropout"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestTimelineUnsupervised(t *testing.T) {
	r := NewRecorder(8)
	rec := sampleRecord(0)
	rec.SupState = ""
	r.Add(rec)
	tl := r.Timeline(40)
	if strings.Contains(tl, "state ") {
		t.Errorf("unsupervised timeline shows a state lane:\n%s", tl)
	}
}

func BenchmarkRecorderAdd(b *testing.B) {
	r := NewRecorder(DefaultCapacity)
	rec := sampleRecord(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(rec)
	}
}
