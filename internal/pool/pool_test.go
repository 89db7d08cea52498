package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"yukta/internal/obs"
)

// goroutineID is the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 3, 7, 100} {
			runs := make([]atomic.Int32, n)
			if err := ForEach(workers, n, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// The lowest failing index is the slowest to fail, so under concurrency a
	// higher one fails first; the lower one was claimed earlier and still
	// runs, and its error is the one returned.
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(workers, 64, func(i int) error {
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond)
				return fmt.Errorf("job %d", i)
			case 5, 9, 40:
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("workers %d: got %v, want job 3", workers, err)
		}
	}
}

func TestForEachSkipsUnstartedJobsAfterFailure(t *testing.T) {
	var ran atomic.Int32
	fail := errors.New("fail")
	err := ForEach(2, 1000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return fail
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != fail {
		t.Fatalf("got %v, want %v", err, fail)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("every job ran after the first one failed")
	}
}

func TestForEachMeteredBoundsActiveWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		m := obs.NewRegistry()
		if err := ForEachMetered(workers, 50, m, func(int) error {
			time.Sleep(200 * time.Microsecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		active := m.Gauge("pool_workers_active")
		if peak := active.Max(); peak < 1 || peak > int64(workers) {
			t.Fatalf("workers %d: pool_workers_active peaked at %d", workers, peak)
		}
		if v := active.Value(); v != 0 {
			t.Fatalf("workers %d: pool_workers_active ends at %d", workers, v)
		}
		if jobs := m.Counter("pool_jobs_total").Value(); jobs != 50 {
			t.Fatalf("workers %d: pool_jobs_total %d, want 50", workers, jobs)
		}
	}
}

func TestForEachOneWorkerRunsOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		next := 0
		if err := ForEach(workers, 5, func(i int) error {
			if id := goroutineID(); id != caller {
				return fmt.Errorf("job %d ran on goroutine %s, not the caller's %s", i, id, caller)
			}
			if i != next {
				return fmt.Errorf("job %d ran out of order", i)
			}
			next++
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}
