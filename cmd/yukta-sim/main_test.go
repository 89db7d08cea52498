package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/serve"
	"yukta/internal/workload"
)

// TestRunViaSurvivesDaemonCrash drives the -via path through a daemon
// "crash" with a lost response: a front-door handler forwards to a durable
// daemon A until a chosen step request, executes that request (so it is
// acknowledged in the write-ahead log) but drops the response on the floor
// and swaps the backend to a freshly recovered daemon B over the same data
// dir. The hardened client must retry the lost request — its idempotency
// sequence number hitting B's recovered cache rather than re-executing —
// and the -record file must come out byte-identical to an uninterrupted
// batch run of the same tuple.
func TestRunViaSurvivesDaemonCrash(t *testing.T) {
	p, err := core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sA, err := serve.New(serve.Config{Platform: p, TenantRate: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		backend http.Handler = sA.Handler()
		steps   int
		crashed bool
	)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		// runVia's 500-interval chunks cover this run in a single step
		// request — crash on exactly that one, after it executed.
		if !crashed && r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/step") {
			steps++
			if steps == 1 {
				crashed = true
				cur := backend
				mu.Unlock()
				// Execute against A — the mutation lands in the WAL — but
				// lose the response, exactly what a crash between fsync and
				// reply looks like to the client.
				cur.ServeHTTP(httptest.NewRecorder(), r)
				sB, err := serve.New(serve.Config{Platform: p, TenantRate: -1, DataDir: dir})
				if err != nil {
					t.Error(err)
					panic(http.ErrAbortHandler)
				}
				rep := sB.Recover()
				if rep.Recovered != 1 {
					t.Errorf("recover report %+v; want 1 recovered", rep)
				}
				mu.Lock()
				backend = sB.Handler()
				mu.Unlock()
				panic(http.ErrAbortHandler)
			}
		}
		cur := backend
		mu.Unlock()
		cur.ServeHTTP(w, r)
	}))
	defer front.Close()

	record := filepath.Join(t.TempDir(), "run.jsonl")
	if err := runVia(front.URL, "coordinated", "gamess", 30*time.Second, 1.0, 7, record, false); err != nil {
		t.Fatalf("runVia across the crash: %v", err)
	}

	// Uninterrupted reference: the batch engine over the tuple runVia sent.
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	if _, err := core.Run(p.Cfg, serve.DefaultSchemes(p)["coordinated"], w, core.RunOptions{
		MaxTime:    30 * time.Second,
		SkipSeries: true,
		Trace:      rec,
		Faults:     fault.PresetClass(7, 1.0, "all"),
	}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rec.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("-record across a crash differs from the batch trace (%d vs %d bytes)", len(got), want.Len())
	}
	if !crashed {
		t.Fatal("the crash injection never fired")
	}
	// runVia's final DELETE went to daemon B: the session is gone and its
	// log discarded, so nothing is left to recover.
	sC, err := serve.New(serve.Config{Platform: p, TenantRate: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sC.NeedsRecovery() {
		t.Fatal("session log survived the -via delete")
	}
}
