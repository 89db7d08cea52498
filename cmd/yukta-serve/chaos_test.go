package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"yukta/internal/board"
	"yukta/internal/client"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/serve"
	"yukta/internal/workload"
)

// The chaos test SIGKILLs a real durable daemon mid-session at randomized
// step offsets and requires the recovered, resumed run to finish
// byte-identical to one that never crashed. The daemon under test is a
// child process re-executing this test binary (TestMain dispatches on
// YUKTA_CHAOS_CHILD), so the kill is a true process kill — no deferred
// flushes, no graceful anything — and the only state that survives is what
// the write-ahead log fsync'd before each acknowledgment.

func TestMain(m *testing.M) {
	if os.Getenv("YUKTA_CHAOS_CHILD") == "1" {
		chaosChild()
		return
	}
	os.Exit(m.Run())
}

// chaosChild is the daemon under test: a durable serve.Server on a fixed
// parent-chosen address. The listener comes up before recovery (the parent's
// client must see the 503 fence, not connection-refused) and the process
// then blocks until killed.
func chaosChild() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	p, err := core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
	if err != nil {
		die(err)
	}
	srv, err := serve.New(serve.Config{
		Platform:   p,
		TenantRate: -1,
		DataDir:    os.Getenv("YUKTA_CHAOS_DATA"),
	})
	if err != nil {
		die(err)
	}
	// The previous incarnation died with established connections on this
	// port; retry the bind briefly rather than racing the kernel's cleanup.
	var ln net.Listener
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", os.Getenv("YUKTA_CHAOS_ADDR")); err == nil {
			break
		}
		if i > 100 {
			die(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	if srv.NeedsRecovery() {
		if os.Getenv("YUKTA_CHAOS_RECOVER") != "1" {
			die(fmt.Errorf("leftover logs but no recover flag"))
		}
		fmt.Fprintf(os.Stderr, "chaos child: %s\n", srv.Recover())
	}
	select {}
}

// chaosPlatform builds the parent's reference platform once.
var (
	chaosPlatOnce sync.Once
	chaosPlat     *core.Platform
	chaosPlatErr  error
)

func chaosPlatform(t *testing.T) *core.Platform {
	t.Helper()
	chaosPlatOnce.Do(func() {
		chaosPlat, chaosPlatErr = core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
	})
	if chaosPlatErr != nil {
		t.Fatal(chaosPlatErr)
	}
	return chaosPlat
}

// spawnChaosDaemon starts (or restarts) the daemon child and waits for its
// /healthz to answer — possibly still behind the recovery fence, which is
// the hardened client's problem to wait out.
func spawnChaosDaemon(t *testing.T, dataDir, addr string, doRecover bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	rec := "0"
	if doRecover {
		rec = "1"
	}
	cmd.Env = append(os.Environ(),
		"YUKTA_CHAOS_CHILD=1",
		"YUKTA_CHAOS_DATA="+dataDir,
		"YUKTA_CHAOS_ADDR="+addr,
		"YUKTA_CHAOS_RECOVER="+rec,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos daemon on %s never became healthy: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sigkill delivers an immediate SIGKILL and reaps the child.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
}

// corruptWALTail flips one byte in the log's final record, simulating the
// torn/damaged tail a crash mid-write leaves: recovery must truncate it and
// resume from the last valid record.
func corruptWALTail(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 8 {
		t.Fatalf("log %s too short to corrupt (%d bytes)", path, len(raw))
	}
	raw[len(raw)-5] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryChaos is the end-to-end durability gate: a hosted
// faulted session is driven through the hardened client while the daemon is
// SIGKILLed at two randomized step offsets (the second kill also corrupts
// the log's tail byte, forcing the truncate-and-roll-back path) and
// restarted with recovery each time. The client never sees anything but
// retryable errors, the retried sequence numbers never double-advance the
// run, and the final trace must be byte-identical to an uninterrupted batch
// run of the same tuple.
func TestCrashRecoveryChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("crash chaos needs subprocess restarts")
	}

	// Uninterrupted reference: the batch engine over the same tuple the
	// session will be created with (no operator trips in this run, so the
	// corrupted tail record is always a step batch and roll-back converges;
	// the coordinated scheme keeps replay cost at the WAL's mercy rather
	// than the supervised stack's synthesis time — supervised recovery is
	// gated in the serve package and the daemon's -smoke).
	p := chaosPlatform(t)
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	refRec := obs.NewRecorder(0)
	if _, err := core.Run(p.Cfg, serve.DefaultSchemes(p)["coordinated"], w, core.RunOptions{
		MaxTime:    30 * time.Second,
		SkipSeries: true,
		Trace:      refRec,
		Faults:     fault.PresetClass(7, 1.0, "all"),
	}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refRec.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	seed := time.Now().UnixNano()
	t.Logf("chaos seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	// A fixed parent-chosen port keeps the client's base URL stable across
	// daemon incarnations.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	dataDir := t.TempDir()

	cmd := spawnChaosDaemon(t, dataDir, addr, false)
	cl := client.New(client.Config{
		Base:        "http://" + addr,
		MaxAttempts: 100,
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  time.Second,
		JitterSeed:  seed,
		Logf:        t.Logf,
	})
	sess, info, err := cl.CreateSession(serve.CreateRequest{
		Scheme: "coordinated", App: "gamess",
		FaultClass: "all", FaultSeed: 7, FaultIntensity: 1, MaxTimeS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two kill offsets inside the 60-step run, in random chunk sizes.
	kills := []int{5 + rng.Intn(16), 25 + rng.Intn(16)}
	pos := 0
	for killN, killAt := range kills {
		for pos < killAt {
			resp, err := sess.Step(1 + rng.Intn(9))
			if err != nil {
				t.Fatalf("step toward kill %d: %v", killAt, err)
			}
			pos = resp.Steps
			if resp.Done {
				t.Fatalf("session finished at step %d before kill offset %d", pos, killAt)
			}
		}
		t.Logf("SIGKILL at step %d", pos)
		sigkill(t, cmd)
		if killN == 1 {
			corruptWALTail(t, filepath.Join(dataDir, "sessions", info.ID+".wal"))
		}
		cmd = spawnChaosDaemon(t, dataDir, addr, true)
	}

	if _, err := sess.StepToDone(1 + rng.Intn(9)); err != nil {
		t.Fatal(err)
	}

	// The resumed run's trace must be byte-identical to the uninterrupted
	// reference.
	var got bytes.Buffer
	if err := sess.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("post-chaos trace differs from uninterrupted trace (%d vs %d bytes)", got.Len(), want.Len())
	}

	// The final incarnation's metrics must account for the recovery: one
	// session recovered, one truncated tail (the corrupted record).
	resp, err := http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := metrics["serve_recovered_sessions_total"].(float64); got != 1 {
		t.Errorf("serve_recovered_sessions_total = %v; want 1", metrics["serve_recovered_sessions_total"])
	}
	if got, _ := metrics["serve_recover_truncated_total"].(float64); got != 1 {
		t.Errorf("serve_recover_truncated_total = %v; want 1", metrics["serve_recover_truncated_total"])
	}

	if err := sess.Delete(); err != nil {
		t.Fatal(err)
	}
	sigkill(t, cmd)
}
