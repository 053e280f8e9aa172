package community

import (
	"repro/internal/obs"
	"repro/internal/vm"
)

// execMemo deduplicates the executions of a simulated soak's members. The
// VM is deterministic, so two nodes running the same input under the same
// directives produce the same result and the same report, up to the
// NodeID/Seq stamp: one genuine run stands in for the whole cohort's. This
// is what turns a 100k-node round from 500k VM executions into a handful.
//
// A node is ineligible when its execution has node-local side effects:
// failure recorders seal recordings naming the node and sequence, and a
// learning assignment (LearnHi > LearnLo) feeds the node's own invariant
// engine. Those nodes always run genuinely.
type execMemo struct {
	entries map[string]*memoEntry
	key     []byte // scratch for the lookup key
	hits    int
	misses  int
	genuine int
	cHits   *obs.Counter // sim.memo_hits
	cMisses *obs.Counter // sim.memo_misses
}

type memoEntry struct {
	res vm.RunResult
	rep RunReport // NodeID/Seq cleared; re-stamped per node
}

func newExecMemo(reg *obs.Registry) *execMemo {
	return &execMemo{
		entries: make(map[string]*memoEntry),
		cHits:   reg.Counter("sim.memo_hits"),
		cMisses: reg.Counter("sim.memo_misses"),
	}
}

// run executes input on n: through the memo when the node is eligible,
// genuinely otherwise, and genuinely for every node when the memo is nil.
// The report is always stamped with n's identity and current directives
// sequence, exactly as n's own run would stamp it.
func (e *execMemo) run(n *Node, input []byte) (vm.RunResult, RunReport, []byte, error) {
	if e == nil {
		return n.runLocal(input)
	}
	dir := &n.dir
	if n.RecordFailures || dir.LearnHi > dir.LearnLo {
		e.genuine++
		return n.runLocal(input)
	}
	// The key is the directives' wire encoding followed by the input. It
	// masks Seq: the report echoes it but execution ignores it, so
	// directives differing only by sequence number share an entry. The
	// encoding is self-delimiting and injective, so distinct directive
	// sets never do.
	masked := *dir
	masked.Seq = 0
	e.key = append(appendDirectives(e.key[:0], &masked), input...)
	if ent, hit := e.entries[string(e.key)]; hit {
		e.hits++
		e.cHits.Inc()
		rep := ent.rep
		rep.NodeID = n.ID
		rep.Seq = dir.Seq
		return ent.res, rep, nil, nil
	}
	res, rep, raw, err := n.runLocal(input)
	if err != nil {
		return res, rep, raw, err
	}
	e.misses++
	e.cMisses.Inc()
	ent := &memoEntry{res: res, rep: rep}
	ent.rep.NodeID = ""
	ent.rep.Seq = 0
	e.entries[string(e.key)] = ent
	return res, rep, raw, nil
}
