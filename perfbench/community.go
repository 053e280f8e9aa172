package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/community"
	"repro/internal/community/sim"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/webapp"
)

// The community campaign's shape: a few hundred nodes behind aggregators,
// batched, 2% adversaries, churn and four attacks.
const (
	communityNodes       = 200
	communityAggregators = 8
	communityAdversaries = 4
	communityRounds      = 6
)

// communityAttacks are presented in every campaign; a pass runs one
// campaign per rotation of the list.
var communityAttacks = []string{"290162", "312278", "320182", "div-zero"}

// commEnv is the community workload after set-up.
type commEnv struct {
	learnt learnedDB
	confs  []community.SoakConfig
}

func prepareCommunity() (func(*tracer) (env, error), error) {
	inputApp, err := webapp.Build()
	if err != nil {
		return nil, err
	}
	var attacks []community.SoakAttack
	for _, id := range communityAttacks {
		ex, err := exploitByID(id)
		if err != nil {
			return nil, err
		}
		attacks = append(attacks, community.SoakAttack{Label: id, Input: redteam.AttackInput(inputApp, ex, 0)})
	}
	corpus := redteam.LearningCorpus()
	benign := redteam.EvaluationPages()[:2]

	return func(tr *tracer) (env, error) {
		app, err := buildApp(tr)
		if err != nil {
			return nil, err
		}
		l, err := learn(app.Image, corpus, tr)
		if err != nil {
			return nil, err
		}
		e := &commEnv{learnt: l}
		for r := range attacks {
			rotated := append(append([]community.SoakAttack(nil), attacks[r:]...), attacks[:r]...)
			e.confs = append(e.confs, community.SoakConfig{
				Image:           app.Image,
				Seed:            l.db,
				BootstrapInputs: [][]byte{corpus},
				Nodes:           communityNodes,
				Rounds:          communityRounds,
				Attacks:         rotated,
				Benign:          benign,
				Batched:         true,
				Aggregators:     communityAggregators,
				Adversaries:     communityAdversaries,
				Churn:           &community.ChurnConfig{CrashPerRound: 2, JoinPerRound: 1},
				ReplayWorkers:   runtime.NumCPU(),
			})
		}
		return e, nil
	}, nil
}

func (c *commEnv) references() error    { return nil }
func (c *commEnv) passLen() int         { return len(c.confs) }
func (c *commEnv) learned() []learnedDB { return []learnedDB{c.learnt} }

func (c *commEnv) op(i int, tr *tracer) (outcome, error) {
	conf := c.confs[i]
	if tr != nil {
		conf.Obs = obs.New()
	}
	rep, err := sim.Run(conf)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		recordSim(rep, conf.Obs, tr)
	}
	done := outcome{patches: len(rep.Defects)}
	for _, d := range rep.Defects {
		done.presentations += d.Rounds
	}
	return done, checkCommunity(rep, conf.Adversaries)
}

// recordSim reads the layers from the campaign's report and obs registry.
// The program's stages nest inside one another (a flush carries the
// manager's handling), so their totals overlap.
func recordSim(rep *sim.Report, reg *obs.Registry, tr *tracer) {
	tr.add("community.mgr_msgs", float64(rep.Messages))
	tr.add("sim.events", float64(rep.Events))
	tr.add("sim.memo_hits", float64(rep.MemoHits))
	tr.add("sim.memo_misses", float64(rep.MemoMisses))
	tr.add("sim.genuine_runs", float64(rep.GenuineRuns))
	tr.add("replay.runs", float64(rep.ReplayRuns))
	snap := reg.Snapshot()
	for _, s := range []struct{ stage, layer string }{
		{"mgr.handle", "community.mgr_handle"},
		{"agg.handle", "community.agg_handle"},
		{"flush", "community.flush"},
		{"node.sync", "community.node_sync"},
		{"node.execute", "community.node_execute"},
		{"farm", "replay.farm"},
		{"vet", "replay.vet"},
	} {
		tr.stage(&snap, s.stage, s.layer, "")
	}
}

// checkCommunity requires the campaign to converge with every adversary
// quarantined and none of them behind an adopted repair.
func checkCommunity(rep *sim.Report, adversaries int) error {
	switch {
	case !rep.Converged:
		return fmt.Errorf("community did not converge in %d rounds", rep.RoundsRun)
	case len(rep.Quarantined) != adversaries:
		return fmt.Errorf("quarantined %d nodes, want the %d adversaries", len(rep.Quarantined), adversaries)
	case rep.QuarantinedAdoptions != 0:
		return fmt.Errorf("%d adopted repairs came from quarantined nodes", rep.QuarantinedAdoptions)
	}
	for _, id := range rep.Quarantined {
		if !strings.HasPrefix(id, "adv") {
			return fmt.Errorf("honest node %s quarantined", id)
		}
	}
	return nil
}
