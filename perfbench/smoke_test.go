package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that it passes its correctness gate and emits every metric
// BENCHMARK.json names, with its unit. paper-sweep synthesizes its
// controllers in both runs, so the test takes a few minutes.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: defaultSeed, seconds: 0.2, trace: traced, tiny: true,
				workdir: t.TempDir(), start: time.Now(), workers: poolWorkers()}
			if !traced {
				rc.probe = startProbe()
			}
			rep, err := run(rc)
			rc.probe.end()
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			out, info := finish(rc, name, rep)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d mismatches=%v ledger=%+v",
					name, traced, out.Correct, out.Attempted, out.Failed, info["mismatches"], info["ledger"])
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s has unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
		}
	}
}
