package community

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// logEntry is one replicated root envelope: the message and the sender
// identity its connection was bound to when the leader applied it.
// Manager state is a deterministic function of the applied envelope
// sequence, so shipping (envelope, sender) pairs is full state
// replication.
type logEntry struct {
	env    Envelope
	sender string
}

// RootGroup replicates the central manager: a leader serves the community
// while hot followers apply the same envelope stream in the same order, so
// any follower's learn database, directive state, case machines, and
// quarantine set are the leader's. FailLeader promotes the senior follower
// mid-campaign — clients re-dial and resume against state identical to the
// crashed leader's — and rebuilds a replacement follower by replaying the
// group's log, restoring the replication factor.
//
// Replies are part of the state machine too: generating a node's
// directives assigns evaluation candidates (caseState.assignFor mutates
// per-case assignment), so followers generate and discard every reply the
// leader sends. The group lock serializes root handling; the community's
// concurrency lives at the aggregator tier, which keeps root traffic
// O(aggregators).
type RootGroup struct {
	mu        sync.Mutex
	conf      ManagerConfig
	leader    *Manager
	followers []*Manager
	log       []logEntry
	served    *connSet // live connections, severed by FailLeader and Close

	cFailovers  *obs.Counter // root.failovers
	cLogEntries *obs.Counter // root.log_entries
	cReplayed   *obs.Counter // root.log_replayed
}

// NewRootGroup builds a leader from conf plus `followers` hot replicas.
// Followers run with tracing disabled (their spans would double-count the
// pipeline) but keep private counters, so a promoted follower's accessors
// report the same envelope stream the old leader's did. reg (nil ok)
// receives the root.* replication counters.
func NewRootGroup(conf ManagerConfig, followers int, reg *obs.Registry) (*RootGroup, error) {
	leader, err := NewManager(conf)
	if err != nil {
		return nil, err
	}
	g := &RootGroup{
		conf:        conf,
		leader:      leader,
		served:      newConnSet("root group"),
		cFailovers:  reg.Counter("root.failovers"),
		cLogEntries: reg.Counter("root.log_entries"),
		cReplayed:   reg.Counter("root.log_replayed"),
	}
	for i := 0; i < followers; i++ {
		f, err := NewManager(g.followerConf())
		if err != nil {
			return nil, err
		}
		g.followers = append(g.followers, f)
	}
	return g, nil
}

// followerConf is the leader's config with tracing stripped: followers
// apply the same envelopes, and tracing them would double every pipeline
// span and counter in the shared registry.
func (g *RootGroup) followerConf() ManagerConfig {
	conf := g.conf
	conf.Obs = nil
	return conf
}

// Serve handles one connection (an aggregator's upstream, or a directly
// attached node) until it closes — the replicated analog of
// Manager.Serve. Connections are tracked so a leader crash can sever them:
// clients must re-dial and reach the promoted leader.
func (g *RootGroup) Serve(conn Conn) error { return g.endpoint().serve(conn) }

// endpoint is the group as a transport sees it. handle resolves the
// leader per envelope, so a connection keeps working across a failover
// until the failover severs it.
func (g *RootGroup) endpoint() endpoint { return endpoint{g.handle, g.served} }

// handle applies one envelope to the leader and, on success, appends it to
// the replay log and applies it to every follower (replies generated and
// discarded; see RootGroup). An envelope the leader rejects replicates
// nowhere — the log holds exactly the accepted stream.
func (g *RootGroup) handle(env Envelope, bound *string) (Envelope, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	reply, err := g.leader.handle(env, bound)
	if err != nil {
		return Envelope{}, err
	}
	g.log = append(g.log, logEntry{env: env, sender: *bound})
	g.cLogEntries.Inc()
	for _, f := range g.followers {
		// The leader's bindSender already pinned the connection to *bound,
		// so the follower's own binding (seeded with the same identity)
		// accepts exactly what the leader accepted.
		fbound := *bound
		if _, ferr := f.handle(env, &fbound); ferr != nil {
			return Envelope{}, fmt.Errorf("community: root replica diverged: %w", ferr)
		}
	}
	return reply, nil
}

// FailLeader simulates the root manager crashing mid-campaign: every live
// connection is severed (clients re-dial and reach the new leader), the
// senior follower — whose state is byte-for-byte the crashed leader's — is
// promoted, and a replacement follower is rebuilt by replaying the log, so
// the group tolerates the next crash too.
func (g *RootGroup) FailLeader() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.followers) == 0 {
		return fmt.Errorf("community: root group has no follower to promote")
	}
	g.leader = g.followers[0]
	g.followers = g.followers[1:]
	g.cFailovers.Inc()
	g.served.sever(false)
	f, err := g.rebuildLocked()
	if err != nil {
		return err
	}
	g.followers = append(g.followers, f)
	return nil
}

// rebuildLocked bootstraps a fresh follower from the replay log. Called
// with g.mu held — root traffic waits while the replica catches up, which
// is the price of rejoining with full state.
func (g *RootGroup) rebuildLocked() (*Manager, error) {
	f, err := NewManager(g.followerConf())
	if err != nil {
		return nil, err
	}
	for i := range g.log {
		bound := g.log[i].sender
		if _, err := f.handle(g.log[i].env, &bound); err != nil {
			return nil, fmt.Errorf("community: root log replay diverged at entry %d: %w", i, err)
		}
		g.cReplayed.Inc()
	}
	return f, nil
}

// Leader returns the current leader, for the accessors the soak's
// accounting reads (Messages, Quarantined, CaseStates, ...). The promoted
// follower applied the same envelope stream, so its counters continue the
// crashed leader's.
func (g *RootGroup) Leader() *Manager {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Followers returns the current replication factor (for tests).
func (g *RootGroup) Followers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.followers)
}

// LogLen returns the replay log's length (for tests and reporting).
func (g *RootGroup) LogLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.log)
}

// Close severs every live connection and stops accepting new ones.
func (g *RootGroup) Close() error {
	g.served.sever(true)
	return nil
}
