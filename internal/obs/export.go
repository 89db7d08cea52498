package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// fieldKind classifies a schema field for export formatting and validation.
type fieldKind int

const (
	// kindInt is a JSON number holding an integer.
	kindInt fieldKind = iota
	// kindFloat is a JSON number, or null for a non-finite value (NaN
	// sensor readings under fault injection).
	kindFloat
	// kindBool is a JSON boolean.
	kindBool
	// kindString is a JSON string, optionally restricted to an enum.
	kindString
)

// fieldSpec is one field of a record schema: its JSONL/CSV name, its kind,
// the enum of permitted values for string fields, whether a line may omit
// it, and the extractor that appends its JSON encoding. It is generic over
// the record type so the flight-record and fleet-record schemas share one
// exporter and one validator.
type fieldSpec[T any] struct {
	name     string
	kind     fieldKind
	enum     []string
	optional bool
	// emitIf, when set, decides per record whether the (optional) field is
	// emitted, overriding the writer's includeOptional switch — used for
	// fields that must appear exactly when they carry information (the
	// fleet "node" path) so that records without them stay byte-identical
	// to the schema's previous revision.
	emitIf   func(r *T) bool
	appendTo func(b []byte, r *T) []byte
}

// stateEnum and causeEnum are the permitted values of the supervisory
// string fields (empty string = unsupervised run / no trip).
var (
	stateEnum = []string{"", "nominal", "suspect", "fallback", "recovering"}
	causeEnum = []string{"", "non-finite", "guardband", "rail-pinned",
		"divergence", "chatter", "dropout", "actuation-fault", "throttle-storm",
		"operator"}
)

// intF, floatF, boolF and strF build fieldSpecs for the four kinds.
func intF[T any](name string, get func(*T) int) fieldSpec[T] {
	return fieldSpec[T]{name: name, kind: kindInt,
		appendTo: func(b []byte, r *T) []byte { return strconv.AppendInt(b, int64(get(r)), 10) }}
}

func floatF[T any](name string, get func(*T) float64) fieldSpec[T] {
	return fieldSpec[T]{name: name, kind: kindFloat,
		appendTo: func(b []byte, r *T) []byte { return appendJSONFloat(b, get(r)) }}
}

func boolF[T any](name string, get func(*T) bool) fieldSpec[T] {
	return fieldSpec[T]{name: name, kind: kindBool,
		appendTo: func(b []byte, r *T) []byte { return strconv.AppendBool(b, get(r)) }}
}

func strF[T any](name string, enum []string, get func(*T) string) fieldSpec[T] {
	return fieldSpec[T]{name: name, kind: kindString, enum: enum,
		appendTo: func(b []byte, r *T) []byte { return strconv.AppendQuote(b, get(r)) }}
}

// strFOpt builds an optional free-form string field that is emitted only
// when non-empty, so records that never set it are byte-identical to the
// schema without it.
func strFOpt[T any](name string, get func(*T) string) fieldSpec[T] {
	return fieldSpec[T]{name: name, kind: kindString, optional: true,
		emitIf:   func(r *T) bool { return get(r) != "" },
		appendTo: func(b []byte, r *T) []byte { return strconv.AppendQuote(b, get(r)) }}
}

// schema is the flight-record line schema, in emission order. The JSONL
// writer and ValidateJSONL share this single table, so the exporter cannot
// drift from the validator.
var schema = []fieldSpec[Record]{
	intF("step", func(r *Record) int { return r.Step }),
	floatF("t_s", func(r *Record) float64 { return r.TimeS }),
	floatF("big_w", func(r *Record) float64 { return r.BigPowerW }),
	floatF("little_w", func(r *Record) float64 { return r.LittlePowerW }),
	floatF("temp_c", func(r *Record) float64 { return r.TempC }),
	floatF("bips", func(r *Record) float64 { return r.BIPS }),
	floatF("bips_big", func(r *Record) float64 { return r.BIPSBig }),
	floatF("bips_little", func(r *Record) float64 { return r.BIPSLittle }),
	boolF("throttled", func(r *Record) bool { return r.Throttled }),
	boolF("thermal_throttled", func(r *Record) bool { return r.ThermalThrottled }),
	floatF("cap_w", func(r *Record) float64 { return r.PowerCapW }),
	boolF("budget_throttled", func(r *Record) bool { return r.BudgetThrottled }),
	intF("cmd_big_cores", func(r *Record) int { return r.CmdBigCores }),
	intF("cmd_little_cores", func(r *Record) int { return r.CmdLittleCores }),
	floatF("cmd_big_ghz", func(r *Record) float64 { return r.CmdBigGHz }),
	floatF("cmd_little_ghz", func(r *Record) float64 { return r.CmdLittleGHz }),
	floatF("eff_big_ghz", func(r *Record) float64 { return r.EffBigGHz }),
	floatF("eff_little_ghz", func(r *Record) float64 { return r.EffLittleGHz }),
	intF("threads_big", func(r *Record) int { return r.ThreadsBig }),
	intF("ctl_guardband_streak", func(r *Record) int { return r.CtlGuardbandStreak }),
	intF("ctl_held_steps", func(r *Record) int { return r.CtlHeldSteps }),
	boolF("ctl_railed", func(r *Record) bool { return r.CtlRailed }),
	boolF("ctl_nonfinite", func(r *Record) bool { return r.CtlNonFinite }),
	strF("sup_state", stateEnum, func(r *Record) string { return r.SupState }),
	boolF("sup_tripped", func(r *Record) bool { return r.SupTripped }),
	strF("sup_cause", causeEnum, func(r *Record) string { return r.SupCause }),
	boolF("sup_reengage", func(r *Record) bool { return r.SupReengage }),
	boolF("sup_block_raise", func(r *Record) bool { return r.SupBlockRaise }),
	intF("det_suspect", func(r *Record) int { return r.DetSuspect }),
	intF("det_rail", func(r *Record) int { return r.DetRail }),
	intF("det_chatter", func(r *Record) int { return r.DetChatter }),
	intF("det_dropout", func(r *Record) int { return r.DetDropout }),
	intF("det_mismatch", func(r *Record) int { return r.DetMismatch }),
	intF("det_throttle", func(r *Record) int { return r.DetThrottle }),
	floatF("det_cost_ratio", func(r *Record) float64 { return r.DetCostRatio }),
	intF("fault_dropped", func(r *Record) int { return r.FaultDropped }),
	intF("fault_stale", func(r *Record) int { return r.FaultStale }),
	intF("fault_held", func(r *Record) int { return r.FaultHeld }),
	intF("fault_skewed", func(r *Record) int { return r.FaultSkewed }),
	intF("fault_forced", func(r *Record) int { return r.FaultForced }),
	{name: "lat_ns", kind: kindInt, optional: true,
		appendTo: func(b []byte, r *Record) []byte { return strconv.AppendInt(b, r.LatencyNS, 10) }},
}

// appendJSONFloat appends v's shortest round-trip decimal form, or null when
// v is not finite (JSON cannot represent NaN/Inf).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// SchemaFields returns the JSONL field names in emission order (the last,
// "lat_ns", is optional — see Recorder.IncludeLatency).
func SchemaFields() []string {
	out := make([]string, len(schema))
	for i := range schema {
		out[i] = schema[i].name
	}
	return out
}

// appendJSONObject appends one record's JSON object encoding (no trailing
// newline), fields in schema order, skipping optional fields unless
// includeOptional is set. The single encoder behind WriteJSONL and
// AppendRecordJSON, so a live-streamed record and a trace line cannot differ.
func appendJSONObject[T any](buf []byte, schema []fieldSpec[T], rec *T,
	includeOptional bool) []byte {

	start := len(buf)
	buf = append(buf, '{')
	for fi := range schema {
		f := &schema[fi]
		if f.emitIf != nil {
			if !f.emitIf(rec) {
				continue
			}
		} else if f.optional && !includeOptional {
			continue
		}
		if len(buf) > start+1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, f.name...)
		buf = append(buf, '"', ':')
		buf = f.appendTo(buf, rec)
	}
	return append(buf, '}')
}

// AppendRecordJSON appends one flight record's JSONL encoding (without the
// trailing newline) to buf and returns the extended slice. The encoding is
// byte-identical to the corresponding WriteJSONL line with IncludeLatency
// unset — live session streaming uses it so a watched record matches the
// trace export exactly.
func AppendRecordJSON(buf []byte, r *Record) []byte {
	return appendJSONObject(buf, schema, r, false)
}

// writeJSONLTable writes n records as one JSON object per line, fields in
// schema order, skipping optional fields unless includeOptional is set.
func writeJSONLTable[T any](w io.Writer, schema []fieldSpec[T], n int,
	at func(int) T, includeOptional bool) error {

	buf := make([]byte, 0, 1024)
	for i := 0; i < n; i++ {
		rec := at(i)
		buf = appendJSONObject(buf[:0], schema, &rec, includeOptional)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes the retained records as one JSON object per line, fields
// in schema order. Output is deterministic: floats use the shortest
// round-trip formatting, non-finite values become null, and the
// nondeterministic lat_ns field is emitted only when IncludeLatency is set.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return writeJSONLTable(w, schema, r.Len(), r.At, r.IncludeLatency)
}

// WriteCSV writes the retained records as CSV with a header row, fields in
// schema order (lat_ns always included — CSV is the local-analysis format,
// not the determinism-checked one). Non-finite floats print as NaN/±Inf.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(SchemaFields(), ",") + "\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 1024)
	for i := 0; i < r.Len(); i++ {
		rec := r.At(i)
		buf = buf[:0]
		for fi := range schema {
			if fi > 0 {
				buf = append(buf, ',')
			}
			buf = appendCSVField(buf, &schema[fi], &rec)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCSVField appends one field's CSV form (strings unquoted — the enum
// values contain no commas; floats in native Go form so NaN survives).
func appendCSVField[T any](b []byte, f *fieldSpec[T], rec *T) []byte {
	j := f.appendTo(nil, rec)
	switch f.kind {
	case kindString:
		s, err := strconv.Unquote(string(j))
		if err != nil {
			s = string(j)
		}
		return append(b, s...)
	case kindFloat:
		if string(j) == "null" {
			return append(b, "NaN"...)
		}
	}
	return append(b, j...)
}

// validateJSONLTable checks a JSONL stream against a schema: each line must
// be a JSON object carrying exactly the schema's fields (optional fields may
// be absent), with the right JSON types, integer fields integral, and string
// fields within their enums. It returns the number of valid records and the
// first violation found.
func validateJSONLTable[T any](rd io.Reader, schema []fieldSpec[T]) (int, error) {
	byName := make(map[string]*fieldSpec[T], len(schema))
	for i := range schema {
		byName[schema[i].name] = &schema[i]
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.UseNumber()
		var objAny map[string]any
		if err := dec.Decode(&objAny); err != nil {
			return n, fmt.Errorf("obs: line %d: not a JSON object: %w", line, err)
		}
		for name := range objAny {
			if byName[name] == nil {
				return n, fmt.Errorf("obs: line %d: unknown field %q", line, name)
			}
		}
		for i := range schema {
			f := &schema[i]
			v, ok := objAny[f.name]
			if !ok {
				if f.optional {
					continue
				}
				return n, fmt.Errorf("obs: line %d: missing field %q", line, f.name)
			}
			if err := checkField(f, v); err != nil {
				return n, fmt.Errorf("obs: line %d: field %q: %w", line, f.name, err)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// ValidateJSONL checks a JSONL stream against the flight-record schema: each
// line must be a JSON object carrying exactly the schema's fields (the
// optional lat_ns field may be absent), with the right JSON types, integer
// fields integral, and string fields within their enums. It returns the
// number of valid records and the first violation found.
func ValidateJSONL(rd io.Reader) (int, error) {
	return validateJSONLTable(rd, schema)
}

// checkField validates one decoded JSON value against its field spec.
func checkField[T any](f *fieldSpec[T], v any) error {
	switch f.kind {
	case kindInt:
		num, ok := v.(json.Number)
		if !ok {
			return fmt.Errorf("want integer, got %T", v)
		}
		if _, err := num.Int64(); err != nil {
			return fmt.Errorf("want integer, got %v", num)
		}
	case kindFloat:
		if v == nil {
			return nil // null encodes a non-finite reading
		}
		num, ok := v.(json.Number)
		if !ok {
			return fmt.Errorf("want number or null, got %T", v)
		}
		if _, err := num.Float64(); err != nil {
			return fmt.Errorf("want number, got %v", num)
		}
	case kindBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want bool, got %T", v)
		}
	case kindString:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("want string, got %T", v)
		}
		if f.enum != nil {
			for _, e := range f.enum {
				if s == e {
					return nil
				}
			}
			return fmt.Errorf("value %q not in enum %v", s, f.enum)
		}
	}
	return nil
}
