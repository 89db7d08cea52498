package workload

import (
	"math"
	"testing"
)

func testApp(t *testing.T) *App {
	t.Helper()
	a, err := NewApp("steady", 100, []Phase{
		{WorkFrac: 1, Threads: 8, MemBound: 0.2, IPCBig: 1.5, IPCLittle: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// profileTrace advances dw in fixed work quanta and records the thread count
// seen at each step.
func profileTrace(dw *Disturbed, steps int, quantum float64) []int {
	out := make([]int, steps)
	for i := 0; i < steps; i++ {
		out[i] = dw.Profile().Threads
		dw.Advance(quantum)
	}
	return out
}

func TestDisturbedSameSeedSameSchedule(t *testing.T) {
	d := Disturbance{MeanPeriodG: 10, DurationG: 4, ThreadFrac: 0.5, MemBoundAdd: 0.2}
	a := profileTrace(NewDisturbed(testApp(t), d, 7), 80, 1)
	b := profileTrace(NewDisturbed(testApp(t), d, 7), 80, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %d vs %d — schedule not deterministic", i, a[i], b[i])
		}
	}
	c := profileTrace(NewDisturbed(testApp(t), d, 8), 80, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDisturbedPerturbsAndRecovers(t *testing.T) {
	d := Disturbance{MeanPeriodG: 8, DurationG: 5, ThreadFrac: 0.5, MemBoundAdd: 0.3}
	dw := NewDisturbed(testApp(t), d, 3)
	sawClean, sawDisturbed := false, false
	for i := 0; i < 90 && !dw.Done(); i++ {
		p := dw.Profile()
		switch p.Threads {
		case 8:
			sawClean = true
			if p.MemBound != 0.2 {
				t.Fatalf("clean profile has perturbed MemBound %v", p.MemBound)
			}
		case 4:
			sawDisturbed = true
			if math.Abs(p.MemBound-0.5) > 1e-12 {
				t.Fatalf("disturbed MemBound %v, want 0.5", p.MemBound)
			}
		default:
			t.Fatalf("unexpected thread count %d", p.Threads)
		}
		dw.Advance(1)
	}
	if !sawClean || !sawDisturbed {
		t.Fatalf("trace missing states: clean=%v disturbed=%v (%d windows)",
			sawClean, sawDisturbed, dw.Disturbances())
	}
	if dw.Disturbances() == 0 {
		t.Fatal("no disturbance windows opened")
	}
}

func TestDisturbedResetReplaysSchedule(t *testing.T) {
	d := Disturbance{MeanPeriodG: 6, DurationG: 3, ThreadFrac: 0.25}
	dw := NewDisturbed(testApp(t), d, 11)
	first := profileTrace(dw, 50, 1)
	dw.Reset()
	if dw.Disturbances() != 0 {
		t.Fatal("Reset did not clear the window count")
	}
	second := profileTrace(dw, 50, 1)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d after Reset: %d vs %d", i, second[i], first[i])
		}
	}
}

func TestDisturbedZeroValueIsTransparent(t *testing.T) {
	dw := NewDisturbed(testApp(t), Disturbance{}, 1)
	for i := 0; i < 30; i++ {
		if p := dw.Profile(); p.Threads != 8 || p.MemBound != 0.2 {
			t.Fatalf("zero-valued disturbance perturbed the profile: %+v", p)
		}
		dw.Advance(1)
	}
	if dw.Disturbances() != 0 {
		t.Fatal("zero-valued disturbance opened a window")
	}
}

func TestDisturbedKeepsInnerName(t *testing.T) {
	dw := NewDisturbed(testApp(t), Disturbance{MeanPeriodG: 5, DurationG: 2, ThreadFrac: 0.5}, 1)
	if dw.Name() != "steady" {
		t.Fatalf("Name() = %q, want inner name", dw.Name())
	}
}
