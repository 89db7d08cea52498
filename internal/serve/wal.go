package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The write-ahead log is the serve layer's durability substrate: one
// append-only file per hosted session, recording the session's *inputs* —
// the create tuple plus every mutating operation (step batches, forced
// trips, the drain walk) — never its state. Because hosted runs are
// deterministic functions of those inputs (the byte-identity gate of
// DESIGN.md §11), recovery is re-execution: replay the logged operations
// through a fresh core.StepRun and the session's trace, scalars and
// supervisory state are reconstructed exactly (see recover.go).
//
// Record format: one record per line, `%08x <json>` — the IEEE CRC32 of the
// JSON payload, a space, the payload. Every append is fsync'd before the
// daemon acknowledges the mutation, so an acknowledged operation survives
// SIGKILL; a torn or corrupted tail (a crash mid-write, a bad sector) fails
// the CRC or the parse and recovery truncates the file back to the last
// valid record instead of refusing to start.

// Op kinds of walRecord.T.
const (
	walOpCreate = "create" // first record: tenant + the full create request
	walOpStep   = "step"   // a step batch: N intervals executed, client Seq
	walOpTrip   = "trip"   // operator-forced supervisor trip
	walOpDrain  = "drain"  // graceful drain walked this session
)

// walRecord is one logged session operation. Exactly one record per
// acknowledged mutation; the zero values of unused fields are omitted.
type walRecord struct {
	// T is the op kind: create, step, trip or drain.
	T string `json:"t"`
	// Tenant is the owning tenant (create records only).
	Tenant string `json:"tenant,omitempty"`
	// Req is the full create request (create records only); replaying it
	// through the normal validation path rebuilds the session's StepRun.
	Req *CreateRequest `json:"req,omitempty"`
	// N is the number of control intervals the step batch executed.
	N int `json:"n,omitempty"`
	// Seq is the client's idempotency sequence number for the step batch
	// (0 when the client did not request idempotent sequencing).
	Seq int64 `json:"seq,omitempty"`
}

// wal is an open per-session write-ahead log. It is not internally locked:
// the owning session serializes access under its own mutex.
type wal struct {
	f    *os.File
	path string
	// appended counts records written to the file since open (recovery seeds
	// it with the replayed count), driving the compaction heuristic.
	appended int
}

// sessionWALPath returns the log path of a session ID within a data dir.
func sessionWALPath(dataDir, id string) string {
	return filepath.Join(dataDir, "sessions", id+".wal")
}

// createWAL creates a fresh session log, failing if one already exists (an
// ID collision means the data dir is shared or stale — refuse rather than
// interleave two sessions' histories). The sessions directory is synced
// before it returns, so the new log's name survives power loss; if that
// sync fails the create fails and the file is removed.
func createWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: creating session log: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return nil, fmt.Errorf("serve: creating session log: %w", err)
	}
	return &wal{f: f, path: path}, nil
}

// openWAL reopens an existing session log for appending (the recovery path;
// the caller has already read and replayed its records).
func openWAL(path string, replayed int) (*wal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: reopening session log: %w", err)
	}
	return &wal{f: f, path: path, appended: replayed}, nil
}

// encodeWALRecord renders one record line, CRC prefix included.
func encodeWALRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// append durably logs one record: write, then fsync, so the caller may
// acknowledge the mutation the moment append returns. Any error wedges the
// session (the caller stops accepting mutations) — a log that cannot be
// written means the durability contract cannot be kept.
func (w *wal) append(rec walRecord) error {
	line, err := encodeWALRecord(rec)
	if err != nil {
		return fmt.Errorf("serve: encoding session log record: %w", err)
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("serve: appending session log record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing session log: %w", err)
	}
	w.appended++
	return nil
}

// close closes the underlying file (idempotent).
func (w *wal) close() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// remove closes and deletes the log (session deleted or reaped — its state
// is intentionally discarded), then syncs the sessions directory so the
// deleted session cannot come back on recovery after power loss.
func (w *wal) remove() error {
	w.close()
	if err := os.Remove(w.path); err != nil {
		return fmt.Errorf("serve: removing session log: %w", err)
	}
	return syncDir(filepath.Dir(w.path))
}

// readWAL reads a session log, returning every valid record plus the byte
// offset where validity ends. A torn/corrupt tail is not an error: records
// holds the valid prefix and validLen < file size flags the damage for the
// caller to truncate (recovery surfaces it in /v1/metrics). Only an
// unreadable file returns err.
func readWAL(path string) (records []walRecord, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF {
			// A final line without its newline is a torn write: invalid.
			return records, validLen, nil
		}
		if err != nil {
			return nil, 0, err
		}
		rec, ok := decodeWALLine(strings.TrimSuffix(line, "\n"))
		if !ok {
			return records, validLen, nil
		}
		records = append(records, rec)
		validLen += int64(len(line))
	}
}

// decodeWALLine parses and CRC-checks one record line.
func decodeWALLine(line string) (walRecord, bool) {
	var rec walRecord
	crcHex, payload, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return rec, false
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return rec, false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != want {
		return rec, false
	}
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return rec, false
	}
	if rec.T == "" {
		return rec, false
	}
	return rec, true
}

// coalesceOps folds a record list into its compact logical form: runs of
// consecutive step records merge into one (interval counts summed, the
// latest client Seq kept — recovery needs only the newest sequence number
// for idempotency). Create/trip/drain records are order-preserving barriers,
// so replaying the coalesced list reproduces the exact same interval/trip
// interleaving as the original.
func coalesceOps(recs []walRecord) []walRecord {
	out := make([]walRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.T == walOpStep && len(out) > 0 && out[len(out)-1].T == walOpStep {
			last := &out[len(out)-1]
			last.N += rec.N
			if rec.Seq != 0 {
				last.Seq = rec.Seq
			}
			continue
		}
		out = append(out, rec)
	}
	return out
}

// compactThreshold triggers in-place compaction: once a session's log has
// grown this many records past its coalesced form, rewrite it. Long-running
// sessions stepped in small batches would otherwise accrete one record per
// request forever; compaction keeps the log proportional to the number of
// logical phase changes (trips, drains) instead.
const compactThreshold = 512

// compact rewrites the log as the given coalesced op list, atomically:
// write a temp file, fsync it, rename over the log, fsync the directory. A
// crash at any point leaves either the old or the new log fully intact.
// Once the rename is done the wal's handle points at the new file, even
// when the directory sync then fails; that failure is returned, since the
// rename may not survive power loss.
func (w *wal) compact(ops []walRecord) error {
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, rec := range ops {
		line, err := encodeWALRecord(rec)
		if err == nil {
			_, err = f.Write(line)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return err
	}
	serr := syncDir(filepath.Dir(w.path))
	// Swap the append handle onto the new file.
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if w.f != nil {
		_ = w.f.Close()
	}
	w.f = nf
	w.appended = len(ops)
	return serr
}

// truncateWAL chops a damaged log back to its last valid record and syncs.
func truncateWAL(path string, validLen int64) error {
	if err := os.Truncate(path, validLen); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// errDirSync marks a failed directory fsync: the create, rename or remove
// before it may not survive power loss.
var errDirSync = errors.New("serve: syncing directory")

// syncDir fsyncs a directory so a rename/create/remove within it is
// durable, and returns the first error of opening, syncing or closing it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("%w: %w", errDirSync, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%w %s: %w", errDirSync, dir, err)
	}
	return nil
}
