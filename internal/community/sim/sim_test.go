package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/webapp"
)

// simSoakConfig assembles the same small red-team soak the live
// community tests run (soak_test.go's soakConfig, rebuilt over the
// exported API): four attacks spanning the paper defects and both
// extended failure classes, three benign pages, six rounds.
func simSoakConfig(t testing.TB, app *webapp.App, nodes int, batched bool) community.SoakConfig {
	t.Helper()
	db, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var attacks []community.SoakAttack
	for _, id := range []string{"290162", "312278", "div-zero", "hang-loop"} {
		var ex redteam.Exploit
		found := false
		for _, cand := range redteam.AllExploits() {
			if cand.Bugzilla == id {
				ex, found = cand, true
				break
			}
		}
		if !found {
			t.Fatalf("unknown exploit %s", id)
		}
		attacks = append(attacks, community.SoakAttack{
			Label: ex.Bugzilla, Input: redteam.AttackInput(app, ex, 0),
		})
	}
	return community.SoakConfig{
		Image:           app.Image,
		Seed:            db,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		StackScope:      1,
		Nodes:           nodes,
		Rounds:          6,
		Attacks:         attacks,
		Benign:          redteam.EvaluationPages()[:3],
		Batched:         batched,
	}
}

// strip removes the per-run telemetry snapshot (the one report section
// that legitimately differs: the simulated entry meters its own sim.*
// counters, memoized executions record no spans, and spans cover
// different wall time) so the rest of the report can be compared
// wholesale.
func strip(rep *community.SoakReport) community.SoakReport {
	out := *rep
	out.Obs = nil
	return out
}

// soakShape is one named campaign configuration. conf builds a fresh
// config per call, so each entry point gets its own.
type soakShape struct {
	name string
	conf func() community.SoakConfig
}

// oracleShapes are the campaigns both entry points must agree on: the
// hierarchical 24-node churn-and-adversaries soak, a flat per-message
// 24-node soak (the protocol's other shipping mode), a 100-node
// hierarchical soak with early stopping, and a flat per-message soak
// whose replicated root fails over mid-campaign, so members re-dial past
// severed connections.
func oracleShapes(t testing.TB, app *webapp.App) []soakShape {
	return []soakShape{
		{"hier-churn-24", func() community.SoakConfig {
			conf := simSoakConfig(t, app, 24, true)
			conf.Aggregators = 3
			conf.Adversaries = 2
			conf.Churn = &community.ChurnConfig{CrashPerRound: 1, JoinPerRound: 1, AggregatorCrashRound: 3}
			return conf
		}},
		{"flat-permsg-24", func() community.SoakConfig {
			return simSoakConfig(t, app, 24, false)
		}},
		{"hier-100", func() community.SoakConfig {
			conf := simSoakConfig(t, app, 100, true)
			conf.Aggregators = 8
			conf.Adversaries = 4
			return conf
		}},
		{"flat-permsg-rootfail-24", func() community.SoakConfig {
			conf := simSoakConfig(t, app, 24, false)
			conf.Adversaries = 2
			conf.RootReplicas = 1
			conf.Churn = &community.ChurnConfig{CrashPerRound: 1, JoinPerRound: 1, RootCrashRound: 3}
			// No reply is lost in this shape (a severed connection fails
			// at once), so a receive timeout fires only when the live run
			// is slow, as under the race detector. A generous one keeps
			// the exact message count a property of the wire, not of the
			// clock.
			conf.Retry = &community.RetryPolicy{RecvTimeout: time.Minute}
			return conf
		}},
	}
}

// churnConfig is TestSimChurnTransitions' campaign: 18 nodes behind 3
// aggregators, two crashes and one join per round, one adversary of each
// flavor (adv000 spoofs, adv001 forges).
func churnConfig(t testing.TB, app *webapp.App) community.SoakConfig {
	conf := simSoakConfig(t, app, 18, true)
	conf.Aggregators = 3
	conf.Adversaries = 2
	conf.Churn = &community.ChurnConfig{CrashPerRound: 2, JoinPerRound: 1}
	return conf
}

// TestSimMatchesGoroutineSoak is the equivalence oracle: for each of the
// oracleShapes, the simulated campaign must produce the same SoakReport —
// adoption tables, quarantine sets, learn-DB outcome, message counts,
// convergence rounds — as the goroutine-per-node RunSoak, byte for byte.
func TestSimMatchesGoroutineSoak(t *testing.T) {
	app := webapp.MustBuild()
	for _, tc := range oracleShapes(t, app) {
		t.Run(tc.name, func(t *testing.T) {
			live, err := community.RunSoak(tc.conf())
			if err != nil {
				t.Fatal(err)
			}
			simRep, err := Run(tc.conf())
			if err != nil {
				t.Fatal(err)
			}
			if !live.Converged {
				t.Fatalf("live soak did not converge: %+v", live)
			}
			if got, want := strip(&simRep.SoakReport), strip(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("sim diverged from live soak:\nsim:  %+v\nlive: %+v", got, want)
			}
			if simRep.MemoHits == 0 {
				t.Fatal("execution memo never hit; the cohort deduplication is not engaged")
			}
			t.Logf("%s: %d schedule steps, %d memo hits / %d misses / %d genuine runs",
				tc.name, simRep.Events, simRep.MemoHits, simRep.MemoMisses, simRep.GenuineRuns)
		})
	}
}

// stripChaosTiming additionally zeroes the counters wall-clock can
// legitimately inflate in a live chaos run: when a manager batch apply
// outlasts the receive window, the aggregator re-sends the same
// FlushSeq-numbered batch on the same connection (and a node re-sends a
// slow Hello in place). The manager applies each flush at most once, so
// those re-sends change no state — but their count depends on how slow
// the hardware is, and a loopback answers inline, so it never re-sends.
// Everything else —
// adoption tables, quarantine sets, learn DB, churn, failovers,
// reconnects, dropped envelopes — must still match exactly.
func stripChaosTiming(rep community.SoakReport) community.SoakReport {
	rep.Messages = 0
	rep.Batches = 0
	rep.Retries = 0
	rep.ReplayLogEntries = 0
	return rep
}

// TestSimMatchesGoroutineSoakChaos is the oracle's hostile arm: the
// chaos schedule (drops, delays, duplicates, disconnects, partitions),
// a replicated root with a mid-campaign leader crash, and churn — the
// live chaos soak's exact configuration. Both entry points dial through
// the one rig, in one order, so the seeded fault schedule hits the same
// envelopes in both runs (the test proves it by comparing every chaos.*
// fault counter) and the state-level reports match; see
// stripChaosTiming for the one carve-out.
func TestSimMatchesGoroutineSoakChaos(t *testing.T) {
	app := webapp.MustBuild()
	conf := func() community.SoakConfig {
		conf := simSoakConfig(t, app, 24, true)
		conf.Aggregators = 3
		conf.Adversaries = 2
		conf.Chaos = community.DefaultChaos(1)
		conf.RootReplicas = 1
		conf.Churn = &community.ChurnConfig{CrashPerRound: 1, JoinPerRound: 1, RootCrashRound: 3}
		conf.Retry = &community.RetryPolicy{Seed: 1, RecvTimeout: 100 * time.Millisecond}
		conf.Obs = obs.New()
		return conf
	}
	live, err := community.RunSoak(conf())
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := Run(conf())
	if err != nil {
		t.Fatal(err)
	}
	if !live.Converged {
		t.Fatalf("live chaos soak did not converge: %+v", live)
	}
	if live.DroppedEnvelopes == 0 || live.Retries == 0 {
		t.Fatalf("chaos never fired in the live run: %+v", live)
	}
	// The seeded fault schedules must have fired identically: every
	// injected-fault class, same count on both sides.
	for _, c := range []string{"chaos.dropped", "chaos.delayed", "chaos.duplicated", "chaos.disconnects", "chaos.partitioned"} {
		if l, s := live.Obs.Counter(c), simRep.Obs.Counter(c); l != s {
			t.Fatalf("fault schedules diverged: %s fired %d live vs %d simulated", c, l, s)
		}
	}
	got := stripChaosTiming(strip(&simRep.SoakReport))
	want := stripChaosTiming(strip(live))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos sim diverged from live soak:\nsim:  %+v\nlive: %+v", got, want)
	}
	if simRep.Messages > live.Messages {
		t.Fatalf("sim manager saw more envelopes (%d) than live (%d); slow-reply re-sends only ever add",
			simRep.Messages, live.Messages)
	}
}

// TestSimRejectsParallelShapes: the parallel soak shapes have no
// simulated analog and must be refused, not silently serialized.
func TestSimRejectsParallelShapes(t *testing.T) {
	app := webapp.MustBuild()
	conf := simSoakConfig(t, app, 8, true)
	conf.ParallelMembers = true
	if _, err := Run(conf); err == nil {
		t.Fatal("ParallelMembers accepted")
	}
	conf.ParallelMembers = false
	conf.ParallelFlush = true
	if _, err := Run(conf); err == nil {
		t.Fatal("ParallelFlush accepted")
	}
}

// TestSimChurnTransitions runs a small simulated campaign with every
// churn transition live — per-round crashes (the crashed member sits a
// round out, then rejoins under a different aggregator), mid-campaign
// joins, and both adversary flavors — and checks the report accounts
// each transition and the campaign still converges with the adversaries
// quarantined.
func TestSimChurnTransitions(t *testing.T) {
	app := webapp.MustBuild()
	rep, err := Run(churnConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("campaign did not converge: %+v", rep)
	}
	if rep.Crashes == 0 || rep.Rejoins == 0 || rep.Joins == 0 {
		t.Fatalf("churn transitions not all exercised: crashes=%d rejoins=%d joins=%d",
			rep.Crashes, rep.Rejoins, rep.Joins)
	}
	if rep.Rejoins != rep.Crashes-2 {
		// Every crash rejoins next round except the final round's batch.
		t.Fatalf("rejoins %d, want crashes-2 = %d", rep.Rejoins, rep.Crashes-2)
	}
	if got, want := rep.Quarantined, []string{"adv000", "adv001"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantined %v, want %v", got, want)
	}
	if rep.QuarantinedAdoptions != 0 {
		t.Fatalf("%d adoptions credited to quarantined nodes", rep.QuarantinedAdoptions)
	}
}
