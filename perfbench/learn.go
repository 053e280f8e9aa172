package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// learnedDB is one invariant database set-up learned, with what it was
// learned from and what core.Learn reported.
type learnedDB struct {
	img    *image.Image
	corpus []byte
	db     *daikon.DB
	stats  core.LearnStats
}

// buildApp assembles the protected application's image.
func buildApp(tr *tracer) (*webapp.App, error) {
	tr.begin("webapp.build")
	defer tr.end()
	return webapp.Build()
}

// learn runs one learning campaign, as every deployment does before its
// first op.
func learn(img *image.Image, corpus []byte, tr *tracer) (learnedDB, error) {
	tr.begin("core.learn")
	db, stats, err := core.Learn(img, core.LearnConfig{Inputs: [][]byte{corpus}})
	tr.end()
	if err != nil {
		return learnedDB{}, fmt.Errorf("learn: %w", err)
	}
	return learnedDB{img: img, corpus: corpus, db: db, stats: stats}, nil
}

// splitLearn repeats each learning campaign as the public steps core.Learn
// composes — a recorder run, then Engine.Finalize — timing each, and
// checks the split makes as many observations and learns as many
// invariants as set-up did.
func splitLearn(dbs []learnedDB, tr *tracer) error {
	for _, l := range dbs {
		tr.begin("trace.run")
		eng := daikon.NewEngine()
		rec := trace.NewRecorder(eng)
		machine, err := vm.New(vm.Config{Image: l.img, Plugins: []vm.Plugin{rec}, Input: l.corpus})
		if err != nil {
			tr.end()
			return fmt.Errorf("split learning: %w", err)
		}
		if res := machine.Run(); res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			rec.CommitRun()
		} else {
			rec.DiscardRun()
		}
		tr.end()
		if rec.Observations() != l.stats.Observations {
			return fmt.Errorf("split learning made %d observations, core.Learn %d", rec.Observations(), l.stats.Observations)
		}
		tr.add("trace.observations", float64(rec.Observations()))

		tr.begin("daikon.finalize")
		db := eng.Finalize(daikon.Options{})
		tr.end()
		if db.Len() != l.db.Len() {
			return fmt.Errorf("split learning found %d invariants, core.Learn %d", db.Len(), l.db.Len())
		}
		tr.add("daikon.invariants", float64(db.Len()))
	}
	return nil
}
