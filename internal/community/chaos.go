package community

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// ChaosConfig schedules deterministic transport faults. A FaultConn built
// from the same config and stream number injects the same fault sequence
// every run, so a chaos soak is reproducible from its seed alone. All
// probabilities are per envelope; every injected fault increments an obs
// counter (chaos.*), so a run can prove its faults actually fired.
type ChaosConfig struct {
	// Seed is the master seed; each FaultConn derives its own generator
	// from (Seed, stream), so connections fault independently but
	// reproducibly.
	Seed int64

	// Drop silently loses an envelope: a dropped send claims success, a
	// dropped receive discards the delivered envelope and keeps waiting.
	// The victim recovers via its receive timeout and retry policy.
	Drop float64
	// Delay holds an envelope for a uniform duration in (0, MaxDelay]
	// before delivering it.
	Delay float64
	// MaxDelay bounds injected delays; default 2ms.
	MaxDelay time.Duration
	// Duplicate delivers an envelope twice. On a request/response
	// protocol the stray reply desynchronizes the channel; the client must
	// detect the stale reply by its token and drain it.
	Duplicate float64
	// Disconnect delivers the envelope, then tears the connection down
	// mid-flush and reports a send error — the ambiguous failure where the
	// peer may or may not have applied the payload.
	Disconnect float64

	// PartitionEvery carves periodic partition windows into each
	// connection's send schedule: of every PartitionEvery envelopes, the
	// last PartitionLen fail with a partition error (0 disables).
	PartitionEvery int
	// PartitionLen is the partition window length, in envelopes. It must
	// be < PartitionEvery so every window heals.
	PartitionLen int
}

// DefaultChaos is the chaos schedule the soak's -chaos flag arms: every
// fault class fires at a rate a healthy retry policy absorbs.
func DefaultChaos(seed int64) *ChaosConfig {
	return &ChaosConfig{
		Seed:           seed,
		Drop:           0.01,
		Delay:          0.05,
		MaxDelay:       2 * time.Millisecond,
		Duplicate:      0.01,
		Disconnect:     0.005,
		PartitionEvery: 40,
		PartitionLen:   2,
	}
}

// validate rejects schedules that could never heal.
func (c *ChaosConfig) validate() error {
	if c.PartitionEvery > 0 && c.PartitionLen >= c.PartitionEvery {
		return fmt.Errorf("community: partition window %d must be shorter than its period %d",
			c.PartitionLen, c.PartitionEvery)
	}
	return nil
}

// mixSeed folds a per-connection stream number into the master seed
// (splitmix64 finalizer), so two connections never share a schedule.
func mixSeed(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// FaultConn wraps a Conn — either substrate — with a seeded fault
// schedule: dropped, delayed, and duplicated envelopes, mid-flush
// disconnects, and periodic partition windows. It implements Conn (and
// forwards RecvTimeouter), so it can stand between any client and any
// tier. Faults are injected on this end's traffic only; wrap both ends to
// fault both directions.
type FaultConn struct {
	inner Conn
	conf  ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	sends int

	cDropped     *obs.Counter
	cDelayed     *obs.Counter
	cDuplicated  *obs.Counter
	cDisconnects *obs.Counter
	cPartitioned *obs.Counter
}

// NewFaultConn wraps inner with conf's fault schedule. stream
// distinguishes this connection's generator from its siblings'; reg (nil
// ok) receives the chaos.* fault counters.
func NewFaultConn(inner Conn, conf *ChaosConfig, stream int64, reg *obs.Registry) (*FaultConn, error) {
	if conf == nil {
		return nil, fmt.Errorf("community: FaultConn needs a ChaosConfig")
	}
	if err := conf.validate(); err != nil {
		return nil, err
	}
	return &FaultConn{
		inner:        inner,
		conf:         *conf,
		rng:          rand.New(rand.NewSource(mixSeed(conf.Seed, stream))),
		cDropped:     reg.Counter("chaos.dropped"),
		cDelayed:     reg.Counter("chaos.delayed"),
		cDuplicated:  reg.Counter("chaos.duplicated"),
		cDisconnects: reg.Counter("chaos.disconnects"),
		cPartitioned: reg.Counter("chaos.partitioned"),
	}, nil
}

// faultDraw is one envelope's scheduled fate.
type faultDraw int

const (
	faultNone faultDraw = iota
	faultDrop
	faultDelay
	faultDuplicate
	faultDisconnect
)

// draw consumes one uniform variate and maps it onto the configured fault
// probabilities (cumulative, so one draw decides the envelope's fate and
// the schedule stays stable as individual probabilities are tuned).
func (f *FaultConn) draw() faultDraw {
	u := f.rng.Float64()
	cum := f.conf.Drop
	if u < cum {
		return faultDrop
	}
	if cum += f.conf.Delay; u < cum {
		return faultDelay
	}
	if cum += f.conf.Duplicate; u < cum {
		return faultDuplicate
	}
	if cum += f.conf.Disconnect; u < cum {
		return faultDisconnect
	}
	return faultNone
}

// inPartition reports whether send index idx falls in a partition window.
func (f *FaultConn) inPartition(idx int) bool {
	if f.conf.PartitionEvery <= 0 || f.conf.PartitionLen <= 0 {
		return false
	}
	return idx%f.conf.PartitionEvery >= f.conf.PartitionEvery-f.conf.PartitionLen
}

// Send delivers, drops, delays, duplicates, or disconnects according to
// the schedule. Partition windows preempt the per-envelope draw: inside
// one, every send fails (and still consumes its draw, so the schedule
// after the window does not depend on how much traffic hit it).
func (f *FaultConn) Send(e Envelope) error {
	f.mu.Lock()
	idx := f.sends
	f.sends++
	fate := f.draw()
	var delay time.Duration
	if fate == faultDelay {
		max := f.conf.MaxDelay
		if max <= 0 {
			max = 2 * time.Millisecond
		}
		delay = time.Duration(f.rng.Int63n(int64(max))) + 1
	}
	f.mu.Unlock()

	if f.inPartition(idx) {
		f.cPartitioned.Inc()
		return fmt.Errorf("community: injected partition (envelope %d)", idx)
	}
	switch fate {
	case faultDrop:
		f.cDropped.Inc()
		return nil // claimed delivered, silently lost
	case faultDelay:
		f.cDelayed.Inc()
		time.Sleep(delay)
		return f.inner.Send(e)
	case faultDuplicate:
		f.cDuplicated.Inc()
		if err := f.inner.Send(e); err != nil {
			return err
		}
		return f.inner.Send(e)
	case faultDisconnect:
		f.cDisconnects.Inc()
		_ = f.inner.Send(e) // the peer may have gotten it...
		_ = f.inner.Close() // ...but the sender only sees a dead wire
		return fmt.Errorf("community: injected disconnect (envelope %d)", idx)
	default:
		return f.inner.Send(e)
	}
}

// Recv forwards the inner receive, discarding envelopes the schedule
// drops (the receive-direction loss: the caller keeps waiting and its
// receive timeout, not this wrapper, decides when to give up).
func (f *FaultConn) Recv() (Envelope, error) {
	for {
		e, err := f.inner.Recv()
		if err != nil {
			return Envelope{}, err
		}
		f.mu.Lock()
		fate := f.draw()
		f.mu.Unlock()
		if fate == faultDrop {
			f.cDropped.Inc()
			continue
		}
		return e, nil
	}
}

// Close closes the wrapped connection.
func (f *FaultConn) Close() error { return f.inner.Close() }

// SetRecvTimeout forwards to the wrapped connection when it supports
// receive deadlines.
func (f *FaultConn) SetRecvTimeout(d time.Duration) {
	if rt, ok := f.inner.(RecvTimeouter); ok {
		rt.SetRecvTimeout(d)
	}
}
