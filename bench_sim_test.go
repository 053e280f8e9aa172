package repro_test

import (
	"testing"

	"repro/internal/community"
	"repro/internal/community/sim"
	"repro/internal/redteam"
)

// BenchmarkSimSoak times a simulated soak (loopback transport plus
// execution memo) on a mid-scale hierarchical campaign — 2,000 nodes
// behind 16 aggregators with 40 adversaries and churn, two orders of
// magnitude past what the goroutine soak benches at — and reports the
// campaign's shape: schedule steps (member turns, flushes, convergence
// checks), central-manager envelopes, and memoized executions. The
// campaign must converge with every adversary quarantined; the counts
// are deterministic (the schedule is seeded and serial) and ride along
// as Info metrics, so the perf surface tracked here is the handler +
// wire-cache cost per simulated campaign.
func BenchmarkSimSoak(b *testing.B) {
	setup, _ := sharedSetups(b)
	var attacks []community.SoakAttack
	for _, id := range []string{"290162", "312278"} {
		attacks = append(attacks, community.SoakAttack{
			Label: id, Input: redteam.AttackInput(setup.App, exploit(b, id), 0),
		})
	}
	var events, msgs, memoHits float64
	for i := 0; i < b.N; i++ {
		rep, err := sim.Run(community.SoakConfig{
			Image:           setup.App.Image,
			Seed:            setup.DB,
			BootstrapInputs: [][]byte{redteam.LearningCorpus()},
			Nodes:           2000,
			Rounds:          6,
			Attacks:         attacks,
			Benign:          redteam.EvaluationPages()[:2],
			Batched:         true,
			Aggregators:     16,
			Adversaries:     40,
			Churn:           &community.ChurnConfig{CrashPerRound: 4, JoinPerRound: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatalf("sim soak did not converge: %+v", rep.SoakReport)
		}
		if len(rep.Quarantined) != 40 {
			b.Fatalf("quarantined %d adversaries, want 40", len(rep.Quarantined))
		}
		events = float64(rep.Events)
		msgs = float64(rep.Messages)
		memoHits = float64(rep.MemoHits)
	}
	b.ReportMetric(events, "events")
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(memoHits, "memo-hits")
}
