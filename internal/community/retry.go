package community

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures the resilient client path shared by nodes and
// aggregators: how long a receive may wait before it is declared lost, how
// many times a round trip is attempted, and how the backoff between
// attempts grows. Zero fields take the defaults below. The policy value is
// shared; each client derives its own jitter stream from Seed and its
// identity, so a fleet retrying after the same fault does not reconnect in
// lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds the hard-failure attempts per round trip — dead
	// wires, partitions, refused re-dials — first try included (default 6).
	MaxAttempts int
	// TimeoutAttempts bounds the TOTAL attempts when receives keep timing
	// out on a healthy connection (default 8x MaxAttempts). A slow upstream
	// — a root applying a large flush behind the replication lock — needs
	// patience, not reconnection: the client retries in place, and the
	// budget for that is much larger than for hard failures. An
	// aggregator re-sends its numbered flush, which the manager applies at
	// most once; a node resyncs with a Hello and never re-sends a report.
	TimeoutAttempts int
	// BaseDelay is the backoff before the first retry (default 1ms); each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the doubled backoff (default 50ms).
	MaxDelay time.Duration
	// RecvTimeout bounds each receive (default 250ms): a dropped request
	// or reply surfaces as a timeout instead of hanging the client.
	RecvTimeout time.Duration
	// Seed feeds the per-client jitter generators.
	Seed int64
}

// DefaultRetry is the policy the chaos soak arms.
func DefaultRetry(seed int64) *RetryPolicy { return &RetryPolicy{Seed: seed} }

// withDefaults fills zero fields in a copy.
func (p *RetryPolicy) withDefaults() RetryPolicy {
	out := *p
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 6
	}
	if out.TimeoutAttempts <= 0 {
		out.TimeoutAttempts = 8 * out.MaxAttempts
	}
	if out.BaseDelay <= 0 {
		out.BaseDelay = time.Millisecond
	}
	if out.MaxDelay <= 0 {
		out.MaxDelay = 50 * time.Millisecond
	}
	if out.RecvTimeout <= 0 {
		out.RecvTimeout = 250 * time.Millisecond
	}
	return out
}

// retrier is one client's retry state: the normalized policy plus a seeded
// jitter generator (mutex-guarded; a node's round trips are serial, but an
// aggregator's flush path and its members' handlers share the struct).
type retrier struct {
	pol RetryPolicy
	mu  sync.Mutex
	rng *rand.Rand
}

// newRetrier derives a client's retrier from the shared policy and the
// client's stable identity.
func newRetrier(p *RetryPolicy, id string) *retrier {
	pol := p.withDefaults()
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return &retrier{
		pol: pol,
		rng: rand.New(rand.NewSource(mixSeed(pol.Seed, int64(h.Sum64())))),
	}
}

// backoff computes the delay before retry number attempt (0-based):
// exponential growth capped at MaxDelay, with the upper half jittered so
// clients sharing a fault do not retry in phase.
func (r *retrier) backoff(attempt int) time.Duration {
	d := r.pol.BaseDelay
	for i := 0; i < attempt && d < r.pol.MaxDelay; i++ {
		d *= 2
	}
	if d > r.pol.MaxDelay {
		d = r.pol.MaxDelay
	}
	half := d / 2
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(half) + 1))
	r.mu.Unlock()
	return half + jitter
}

// sleep waits out the backoff before retry number attempt.
func (r *retrier) sleep(attempt int) { time.Sleep(r.backoff(attempt)) }
