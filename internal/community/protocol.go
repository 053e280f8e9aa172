// Package community implements the application community of §3: a group of
// machines running the same application that cooperate to detect failures,
// learn invariants, and distribute patches. A central Manager (the
// Determina Management Console analog) talks to per-machine NodeManagers
// over a transport — an in-process pipe for tests and a real TCP transport
// (the production analog of the console's secure channel).
//
// Patches cross the wire as declarative PatchSpecs (the analog of the
// paper's generated-and-compiled C snippets): nodes compile the specs into
// execution-environment patches locally, apply them to running and newly
// launched instances, and stream invariant-check observations back.
package community

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/repair"
)

// MsgKind discriminates protocol messages.
type MsgKind uint8

const (
	// MsgHello introduces a node to the manager.
	MsgHello MsgKind = iota
	// MsgLearnUpload carries a node's locally inferred invariant DB
	// (§3.1: only invariants travel, never raw trace data).
	MsgLearnUpload
	// MsgRunReport carries one execution's outcome, failure information,
	// and invariant-check observations.
	MsgRunReport
	// MsgDirectives carries the manager's current patch set and learning
	// assignment for a node.
	MsgDirectives
	// MsgAck acknowledges a message with no payload.
	MsgAck
	// MsgRecording carries a node's deterministic recording of a failing
	// execution (replay.Recording wire form). The manager replays it to
	// fast-path invariant checking and to judge candidate repairs on its
	// replay farm instead of waiting for live recurrences at the nodes.
	MsgRecording
	// MsgBatch carries many run reports, recordings, and learning uploads
	// in one envelope. Large communities batch so manager work is
	// O(batches), not O(messages): one envelope, one directive snapshot,
	// and at most one replay-farm pass per failure location per batch —
	// however many runs the batch describes.
	MsgBatch
	// MsgDirectivesSet is the reply to an aggregated MsgBatch (one whose
	// NodeIDs list the member nodes an Aggregator speaks for): one
	// Directives snapshot per listed node, so the aggregator can serve
	// member syncs from its cache without an upstream round trip each.
	MsgDirectivesSet
)

// String names the message kind for logs and errors.
func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgLearnUpload:
		return "learn-upload"
	case MsgRunReport:
		return "run-report"
	case MsgDirectives:
		return "directives"
	case MsgAck:
		return "ack"
	case MsgRecording:
		return "recording"
	case MsgBatch:
		return "batch"
	case MsgDirectivesSet:
		return "directives-set"
	}
	return fmt.Sprintf("msg%d", uint8(k))
}

// Hello is a node's registration.
type Hello struct {
	NodeID string // the registering node's stable identity
}

// LearnUpload is a serialized local invariant database.
type LearnUpload struct {
	NodeID string // the uploading node
	DB     []byte // daikon.DB.Marshal output
}

// FailureInfo mirrors vm.Failure across the wire.
type FailureInfo struct {
	PC      uint32   // instruction at which the monitor fired
	Monitor string   // which monitor detected the failure
	Kind    string   // monitor-specific failure classification
	Target  uint32   // offending transfer target or write address
	Stack   []uint32 // innermost-first procedure-entry snapshot
}

// RunReport is one execution's result. Seq echoes the directive sequence
// the node ran under, so the manager can discard reports from instances
// that had not yet applied the current phase's patches.
type RunReport struct {
	NodeID   string       // the reporting node
	Seq      uint64       // directive sequence the run executed under
	Outcome  uint8        // vm.Outcome
	ExitCode uint32       // exit status when Outcome is an exit
	Failure  *FailureInfo // the detected failure, if any
	// Observations are the run's invariant-check results in the canonical
	// folded form correlate.CheckSet emits: per (failure case, invariant)
	// checked in the run, [violated, last] if a check before the last
	// failed and [last] otherwise — exactly what §2.4.3's classification
	// reads. A report with more than two for one pair is not honest
	// traffic; under VetReports it quarantines the sender.
	Observations []correlate.Observation
}

// RecordingUpload ships one failing execution's recording to the manager.
// The payload is the replay.Recording wire form (rec.Marshal), kept opaque
// here so the protocol layer does not depend on the replay machinery.
type RecordingUpload struct {
	NodeID    string // the capturing node
	Recording []byte // replay.Recording wire form
}

// Batch aggregates activity since the sender's last contact: the run
// reports in execution order, the recordings of any failing runs (each a
// replay.Recording wire form), and any learning-database uploads. The
// manager decodes the whole batch up front, applies it (recording vetting
// runs off the manager lock), and replies with one Directives snapshot.
//
// A Batch is also the envelope an Aggregator compacts a whole region's
// round into: NodeIDs then lists every member node the aggregator speaks
// for (reports keep their original NodeID, recordings are deduplicated per
// failure location with RecordingFrom attributing each survivor, and the
// region's learning uploads arrive pre-merged as a single database). An
// aggregated batch is answered with MsgDirectivesSet instead of
// MsgDirectives.
type Batch struct {
	NodeID  string      // the sender: a node, or an aggregator when NodeIDs is set
	Reports []RunReport // run reports in execution order
	// Recordings are failing-run recordings (replay.Recording wire form).
	Recordings [][]byte
	// RecordingFrom, when present, is parallel to Recordings and names the
	// node that captured each one (for quarantine attribution). Absent, the
	// recordings are attributed to NodeID.
	RecordingFrom []string
	// LearnDBs are serialized invariant databases (daikon.DB.Marshal) —
	// one per member upload, or a single pre-merged region database in an
	// aggregated batch.
	LearnDBs [][]byte

	// Aggregated marks the sender as an Aggregator (every flush sets it,
	// even an empty heartbeat with no members yet), which selects the
	// MsgDirectivesSet reply shape and — when the manager provisions a
	// trusted tier — subjects the sender to the aggregator allowlist.
	Aggregated bool
	// NodeIDs lists the member nodes an aggregated batch relays for
	// (sorted). The manager registers the members (learn shards are keyed
	// by node ID, so members keep theirs wherever they re-attach) and
	// replies with one Directives per member.
	NodeIDs []string
	// Quarantined lists nodes the sending aggregator has quarantined since
	// its last flush (edge sanity checks); the manager merges them into
	// its own quarantine set.
	Quarantined []string
	// FlushSeq, when nonzero on an aggregated batch, numbers the sending
	// aggregator's flush snapshots (1, 2, ...). The manager applies each
	// snapshot at most once per sender: a re-sent or duplicated flush —
	// a resilient aggregator retrying across a lost reply, or a faulty
	// wire delivering the envelope twice — is answered with fresh
	// directives but never double-counts the region's reports. Zero (the
	// legacy wire form) disables the dedupe.
	FlushSeq uint64
}

// CheckSpec asks a node to install checking patches for one invariant.
type CheckSpec struct {
	FailureID string           // the failure case the check belongs to
	Invariant daikon.Invariant // the invariant to observe
}

// RepairSpec asks a node to install one repair patch. It carries exactly
// the fields a node needs to compile the enforcement locally.
type RepairSpec struct {
	FailureID string           // the failure case the repair targets
	Invariant daikon.Invariant // the invariant the repair enforces
	Strategy  repair.Strategy  // enforcement strategy (§2.5)
	Value     uint32           // strategy operand (e.g. the set-value constant)
	SPDelta   uint32           // stack-pointer restore for return-from-procedure
	PC        uint32           // enforcement site
	Depth     int              // call-stack depth of the enforcement site
}

// Directives is the manager's current instruction set for a node. It is
// idempotent: nodes reconcile their installed patches to match.
type Directives struct {
	Seq     uint64       // the manager's directive sequence at snapshot time
	Checks  []CheckSpec  // invariant checks to install
	Repairs []RepairSpec // repair patches to install
	// LearnLo/LearnHi restrict the node's tracing to instruction
	// addresses in [LearnLo, LearnHi) (0,0 = no learning assignment) —
	// the amortized distributed learning of §3.1.
	LearnLo uint32
	LearnHi uint32 // see LearnLo
}

// DirectivesSet is the manager's reply to an aggregated Batch: the current
// Directives snapshot of every member node the batch spoke for. Seq mirrors
// the per-node snapshots' sequence (they are taken together, under one
// lock).
type DirectivesSet struct {
	Seq    uint64                // the manager's directive sequence at snapshot time
	ByNode map[string]Directives // one snapshot per member node
}

// Envelope frames one message on the wire.
type Envelope struct {
	Kind    MsgKind // payload discriminator
	Payload []byte  // gob-encoded message of that kind
	// Token correlates a reply with its request: servers echo the request's
	// token verbatim. Resilient clients stamp each request with a fresh
	// token and discard replies carrying any other — the stray reply a
	// duplicated request produces would otherwise shift the
	// request/response framing off by one forever. Zero (the legacy wire
	// form: gob omits it) means "uncorrelated" and is matched by zero.
	Token uint64
}

func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePayload(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// NewEnvelope builds an envelope for a payload value.
func NewEnvelope(kind MsgKind, v any) (Envelope, error) {
	p, err := encodePayload(v)
	if err != nil {
		return Envelope{}, fmt.Errorf("community: encode %v: %w", kind, err)
	}
	return Envelope{Kind: kind, Payload: p}, nil
}
