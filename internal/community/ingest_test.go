package community

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// ingestMsg is one member message: a run report, a learning upload or a
// recording, sendable as its own kind or as a one-item member batch.
type ingestMsg struct {
	report *RunReport
	learn  []byte // daikon.DB wire form
	rec    []byte // replay.Recording wire form
}

// envelope frames the message from node, as its own kind or wrapped in a
// one-item member batch.
func (im ingestMsg) envelope(t *testing.T, node string, batched bool) Envelope {
	t.Helper()
	var env Envelope
	var err error
	switch {
	case batched && im.report != nil:
		env, err = NewEnvelope(MsgBatch, Batch{NodeID: node, Reports: []RunReport{*im.report}})
	case batched && im.learn != nil:
		env, err = NewEnvelope(MsgBatch, Batch{NodeID: node, LearnDBs: [][]byte{im.learn}})
	case batched:
		env, err = NewEnvelope(MsgBatch, Batch{NodeID: node, Recordings: [][]byte{im.rec}})
	case im.report != nil:
		env, err = NewEnvelope(MsgRunReport, *im.report)
	case im.learn != nil:
		env, err = NewEnvelope(MsgLearnUpload, LearnUpload{NodeID: node, DB: im.learn})
	default:
		env, err = NewEnvelope(MsgRecording, RecordingUpload{NodeID: node, Recording: im.rec})
	}
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// ingestOutcome is what one delivery of a message sequence left behind:
// the manager's observable state, the aggregator's when one fronts it, and
// the directives every reply carried. The manager's Batches counter is
// deliberately absent: it counts MsgBatch envelopes, so it tells the two
// sends apart by design.
type ingestOutcome struct {
	Quarantined    map[string]string
	Rejects        int
	CaseStates     map[uint32]core.CaseState
	InvariantCount int
	RecordingCount int
	ReplayRuns     int
	Messages       int
	Replies        []Directives

	AggQuarantined []string
	AggRejects     int
}

// exchange sends env over conn and decodes the directives it is answered
// with.
func exchange(t *testing.T, conn Conn, env Envelope) Directives {
	t.Helper()
	if err := conn.Send(env); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodePayload(MsgDirectives, reply.Payload)
	if err != nil {
		t.Fatalf("reply %v: %v", reply.Kind, err)
	}
	return *v.(*Directives)
}

// TestSingleMessageMatchesOneItemBatch pins the equivalence the ingest
// paths rest on: a run report, learning upload or recording sent as its
// own message kind does exactly what the same item does as a one-item
// member batch. Every case runs against a lone manager and against an
// aggregator in front of one, with vetting and the replay fast path armed,
// and covers honest traffic next to each adversary the static and farm
// vets must catch.
func TestSingleMessageMatchesOneItemBatch(t *testing.T) {
	app := webapp.MustBuild()
	mc := redTeamManagerConfig(t, app)
	mc.VetReports = true
	mc.ReplayWorkers = 1
	seed, err := mc.Seed.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	ex := exploitByID(t, "290162")
	site := app.Labels["site_290162"]
	rec, res, err := replay.Record("n/seq0", app.Image, redteam.AttackInput(app, ex, 0), nil, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || res.Failure.PC != site {
		t.Fatalf("attack run did not fail at the site: %+v", res)
	}
	honestRec, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	failing := &RunReport{
		NodeID: "n", Outcome: uint8(res.Outcome), ExitCode: res.ExitCode,
		Failure: &FailureInfo{
			PC: res.Failure.PC, Monitor: res.Failure.Monitor, Kind: res.Failure.Kind,
			Target: res.Failure.Target, Stack: res.Failure.Stack,
		},
	}
	honest := &RunReport{NodeID: "n", Outcome: uint8(vm.OutcomeExit)}
	spoofed := &RunReport{
		NodeID: "n", Outcome: uint8(vm.OutcomeFailure),
		Failure: &FailureInfo{PC: app.Image.End() + 0x1000, Monitor: "MemoryFirewall"},
	}

	learned, _, err := core.Learn(app.Image, core.LearnConfig{Inputs: redteam.EvaluationPages()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	honestDB, err := learned.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	poison := daikon.NewDB()
	poison.Add(&daikon.Invariant{Kind: daikon.KindLowerBound, Var: daikon.VarID{PC: app.Image.End() + 64}})
	poisonDB, err := poison.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	clean, _, err := replay.Record("n/clean", app.Image, redteam.EvaluationPages()[0], nil, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean.Outcome = vm.OutcomeFailure
	clean.Failure = &vm.Failure{PC: site, Monitor: "MemoryFirewall", Kind: "forged"}
	forgedRec, err := clean.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		msgs []ingestMsg
		// quarantined is whether the sender must end up quarantined;
		// replays is whether the manager must have replayed anything.
		quarantined, replays bool
	}{
		{"honest-report", []ingestMsg{{report: honest}}, false, false},
		{"failing-report", []ingestMsg{{report: failing}}, false, false},
		{"spoofed-report", []ingestMsg{{report: spoofed}, {report: failing}}, true, false},
		{"honest-learn", []ingestMsg{{learn: honestDB}}, false, false},
		{"poisoned-learn", []ingestMsg{{learn: poisonDB}, {learn: honestDB}}, true, false},
		{"honest-recording", []ingestMsg{{report: failing}, {rec: honestRec}}, false, true},
		{"forged-recording", []ingestMsg{{rec: forgedRec}, {rec: honestRec}}, true, true},
	}

	deliver := func(t *testing.T, msgs []ingestMsg, batched, viaAgg bool) ingestOutcome {
		t.Helper()
		conf := mc
		db, err := daikon.UnmarshalDB(seed)
		if err != nil {
			t.Fatal(err)
		}
		conf.Seed = db // merges write into the seed: each manager gets its own
		m, err := NewManager(conf)
		if err != nil {
			t.Fatal(err)
		}
		member := loopback(m.endpoint())
		var agg *Aggregator
		if viaAgg {
			agg, err = NewAggregator(AggregatorConfig{
				ID: "agg", Image: app.Image, Upstream: loopback(m.endpoint()), VetReports: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			member = loopback(agg.endpoint())
		}
		hello, err := NewEnvelope(MsgHello, Hello{NodeID: "n"})
		if err != nil {
			t.Fatal(err)
		}
		var out ingestOutcome
		out.Replies = append(out.Replies, exchange(t, member, hello))
		for _, im := range msgs {
			out.Replies = append(out.Replies, exchange(t, member, im.envelope(t, "n", batched)))
		}
		if agg != nil {
			if err := agg.Flush(); err != nil {
				t.Fatal(err)
			}
			out.AggQuarantined = agg.QuarantinedNodes()
			out.AggRejects = agg.Rejects()
		}
		out.Replies = append(out.Replies, exchange(t, member, hello))
		out.Quarantined = m.Quarantined()
		out.Rejects = m.Rejects()
		out.CaseStates = m.CaseStates()
		out.InvariantCount = m.InvariantCount()
		out.RecordingCount = m.RecordingCount()
		out.ReplayRuns = m.ReplayRuns()
		out.Messages = m.Messages()
		return out
	}

	for _, tc := range cases {
		for _, viaAgg := range []bool{false, true} {
			name := tc.name + "/manager"
			if viaAgg {
				name = tc.name + "/aggregator"
			}
			t.Run(name, func(t *testing.T) {
				single := deliver(t, tc.msgs, false, viaAgg)
				batched := deliver(t, tc.msgs, true, viaAgg)
				if !reflect.DeepEqual(single, batched) {
					t.Fatalf("single messages and one-item batches diverge:\nsingle:  %+v\nbatched: %+v", single, batched)
				}
				if _, q := single.Quarantined["n"]; q != tc.quarantined {
					t.Fatalf("sender quarantined = %v, want %v: %+v", q, tc.quarantined, single.Quarantined)
				}
				if (single.ReplayRuns > 0) != tc.replays {
					t.Fatalf("manager ran %d replays, want some = %v", single.ReplayRuns, tc.replays)
				}
			})
		}
	}
}
