package serve

import (
	"sync"
	"time"
)

// buckets is the per-tenant admission rate limiter: one token bucket per
// tenant, lazily created at full burst on the tenant's first create. Session
// creation consumes a token; tokens refill continuously at rate per second up
// to the burst cap. The clock is injected so tests control time.
type buckets struct {
	rate  float64
	burst int
	now   func() time.Time

	mu   sync.Mutex
	byID map[string]*bucket
}

// bucket is one tenant's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// newBuckets returns the limiter; a non-positive rate disables limiting (every
// take succeeds).
func newBuckets(rate float64, burst int, now func() time.Time) *buckets {
	return &buckets{rate: rate, burst: burst, now: now, byID: map[string]*bucket{}}
}

// take attempts to consume one token for the tenant. On success it returns
// (true, 0); on rejection it returns false and how long until the next token
// accrues (the Retry-After hint).
func (b *buckets) take(tenant string) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	bk := b.byID[tenant]
	if bk == nil {
		bk = &bucket{tokens: float64(b.burst), last: now}
		b.byID[tenant] = bk
	}
	if dt := now.Sub(bk.last).Seconds(); dt > 0 {
		bk.tokens += float64(dt * b.rate)
		if max := float64(b.burst); bk.tokens > max {
			bk.tokens = max
		}
	}
	bk.last = now
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	wait := time.Duration((1 - bk.tokens) / b.rate * float64(time.Second))
	return false, wait
}
