package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walFixture returns a representative logged history: create, step batches
// with and without client sequence numbers, a trip barrier, more steps.
func walFixture() []walRecord {
	return []walRecord{
		{T: walOpCreate, Tenant: "acme", Req: &CreateRequest{Scheme: "yukta-supervised", App: "gamess", MaxTimeS: 30}},
		{T: walOpStep, N: 7, Seq: 1},
		{T: walOpStep, N: 3, Seq: 2},
		{T: walOpTrip},
		{T: walOpStep, N: 5},
	}
}

// writeWAL creates a log at path holding the given records.
func writeWAL(t *testing.T, path string, recs []walRecord) {
	t.Helper()
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, rec := range recs {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALRoundTrip checks that appended records read back exactly, and that
// validLen covers the whole healthy file.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s-1.wal")
	recs := walFixture()
	writeWAL(t, path, recs)

	got, validLen, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != fi.Size() {
		t.Fatalf("validLen = %d, file size %d; a healthy log must be fully valid", validLen, fi.Size())
	}

	// A second session log at the same path is an ID collision: refuse.
	if _, err := createWAL(path); err == nil {
		t.Fatal("createWAL overwrote an existing session log")
	}
}

// TestWALDamagedTail checks the two tail-damage modes — a torn final line
// (crash mid-write) and a corrupted final line (CRC mismatch) — both yield
// the valid prefix plus a validLen that truncates the damage away, and that
// truncateWAL then restores a fully healthy log.
func TestWALDamagedTail(t *testing.T) {
	recs := walFixture()
	damage := map[string]func([]byte) []byte{
		"torn": func(b []byte) []byte {
			return b[:len(b)-3] // chop the tail mid-record
		},
		"corrupt": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-5] ^= 0x01 // flip a payload bit in the last record
			return c
		},
	}
	for name, wreck := range damage {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s-1.wal")
			writeWAL(t, path, recs)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, wreck(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			got, validLen, err := readWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
				t.Fatalf("damaged tail: got %d records %+v; want the %d-record valid prefix", len(got), got, len(recs)-1)
			}
			if err := truncateWAL(path, validLen); err != nil {
				t.Fatal(err)
			}
			healed, healedLen, err := readWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			fi, _ := os.Stat(path)
			if !reflect.DeepEqual(healed, recs[:len(recs)-1]) || healedLen != fi.Size() {
				t.Fatalf("truncated log still damaged: %d records, validLen %d, size %d", len(healed), healedLen, fi.Size())
			}
		})
	}
}

// TestCoalesceOps checks the compaction algebra: consecutive step records
// merge (counts summed, newest Seq kept), trips and drains are barriers, and
// the coalesced list replays to the same positions as the original.
func TestCoalesceOps(t *testing.T) {
	got := coalesceOps(walFixture())
	want := []walRecord{
		{T: walOpCreate, Tenant: "acme", Req: walFixture()[0].Req},
		{T: walOpStep, N: 10, Seq: 2},
		{T: walOpTrip},
		{T: walOpStep, N: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("coalesced to %d records %+v; want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || got[i].N != want[i].N || got[i].Seq != want[i].Seq {
			t.Fatalf("coalesced[%d] = %+v; want %+v", i, got[i], want[i])
		}
	}
	// A step whose client did not use sequencing must not erase the last Seq.
	merged := coalesceOps([]walRecord{{T: walOpStep, N: 2, Seq: 9}, {T: walOpStep, N: 1}})
	if len(merged) != 1 || merged[0].N != 3 || merged[0].Seq != 9 {
		t.Fatalf("seq-preserving merge = %+v; want one step n=3 seq=9", merged)
	}
}

// TestWALCompact checks the atomic rewrite: after compacting onto the
// coalesced ops the file holds exactly those records, and appends keep
// working on the swapped handle.
func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s-1.wal")
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var ops []walRecord
	for _, rec := range walFixture() {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
		ops = coalesceOps(append(ops, rec))
	}
	before, _ := os.Stat(path)
	if err := w.compact(ops); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log (%d -> %d bytes)", before.Size(), after.Size())
	}
	if w.appended != len(ops) {
		t.Fatalf("appended counter = %d after compact; want %d", w.appended, len(ops))
	}

	// The handle now points at the new file: further appends land after the
	// compacted records.
	extra := walRecord{T: walOpStep, N: 2, Seq: 3}
	if err := w.append(extra); err != nil {
		t.Fatal(err)
	}
	got, _, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops)+1 || !reflect.DeepEqual(got[:len(ops)], ops) || got[len(got)-1] != extra {
		t.Fatalf("post-compact log = %+v; want coalesced ops plus the extra step", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("compaction left its temp file behind")
	}
}

// TestDecodeWALLineRejects enumerates malformed lines: missing CRC field,
// short CRC, non-hex CRC, bad JSON, empty op.
func TestDecodeWALLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"{\"t\":\"step\"}",
		"abcd {\"t\":\"step\"}",
		"zzzzzzzz {\"t\":\"step\"}",
		"00000000 {\"t\":\"step\"}",
		"00000000 not-json",
	} {
		if _, ok := decodeWALLine(line); ok {
			t.Errorf("decodeWALLine accepted %q", line)
		}
	}
	// And the happy path survives the enumeration.
	enc, err := encodeWALRecord(walRecord{T: walOpStep, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeWALLine(string(bytes.TrimSuffix(enc, []byte("\n")))); !ok {
		t.Fatal("decodeWALLine rejected a healthy encoded record")
	}
}

// TestSyncDirReportsErrors checks that a directory sync that cannot happen
// is reported, not swallowed: the create, rename or remove it was to make
// durable might not survive power loss.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sessions")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncing an existing directory: %v", err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	err := syncDir(dir)
	if !errors.Is(err, errDirSync) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("syncing a removed directory returned %v, want a directory-sync error wrapping ErrNotExist", err)
	}
}

// TestWALRemove checks that remove deletes the log and reports a failure
// to do so.
func TestWALRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s-1.wal")
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("log still present after remove (stat: %v)", err)
	}
	if err := w.remove(); err == nil {
		t.Fatal("removing an already removed log reported success")
	}
}
