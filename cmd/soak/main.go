// Command soak runs a large-N community soak: it simulates a community
// of node managers (default 1000) sharing one central manager — flat, or
// through a tier of aggregators — presents every node with recurring Red
// Team attacks round after round, optionally under node churn and
// adversarial members, and reports convergence — how many presentations
// each defect needed before every eligible node in the community held the
// same adopted repair — as a machine-readable table.
//
//	soak                            1000 nodes, 32 aggregators, churn + adversaries
//	soak -nodes 100 -aggregators 0  the flat star at smaller N
//	soak -adversaries 0 -churn=false  an immortal, honest population
//	soak -exploits 290162,312278    choose the attack set
//	soak -json                      emit the full report as JSON
//	soak -profile                   per-stage wall/on-CPU/blocked table
//	soak -metrics soak.json         full telemetry snapshot as JSON
//	soak -chaos -seed 7             inject seeded transport faults + a root failover
//	soak -sim -nodes 100000         loopback transport + execution memo, at deployment scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/community"
	"repro/internal/community/sim"
	"repro/internal/obs"
	"repro/internal/redteam"
)

// defaultExploits are repairable at the default stack scope with the
// default learning corpus — every one must converge in a soak. The last
// three are the extended failure classes (arithmetic faults and the
// runaway loop) detected by FaultGuard/HangGuard.
const defaultExploits = "269095,290162,295854,312278,320182,div-zero,unaligned,hang-loop"

func main() {
	nodes := flag.Int("nodes", 1000, "community size")
	aggregators := flag.Int("aggregators", 32, "aggregator tier size (0 = flat star)")
	rounds := flag.Int("rounds", 8, "max rounds (a churn-free soak stops early on convergence)")
	exploits := flag.String("exploits", defaultExploits, "comma-separated Bugzilla ids to present")
	batch := flag.Bool("batch", true, "ship node activity as MsgBatch (false = one message per run)")
	recorders := flag.Int("recorders", 1, "how many nodes record failing runs")
	workers := flag.Int("workers", 0, "manager replay-farm workers (0 = all CPUs)")
	scope := flag.Int("scope", 1, "candidate stack scope")
	adversaries := flag.Int("adversaries", 50, "adversarial members (spoofed + forged reports; forces vetting on)")
	churn := flag.Bool("churn", true, "crash/rejoin nodes, join fresh ones, and fail an aggregator mid-campaign")
	crashPerRound := flag.Int("crash-per-round", 10, "nodes crashed per round under -churn")
	joinPerRound := flag.Int("join-per-round", 5, "fresh nodes joined per round under -churn")
	expanded := flag.Bool("expanded", false, "learn from the expanded corpus (§4.3.2)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of a table")
	profile := flag.Bool("profile", false, "trace pipeline stages and print the per-stage wall/on-CPU/blocked table")
	metrics := flag.String("metrics", "", "write the telemetry snapshot as JSON to this file (\"-\" = stdout)")
	parallel := flag.Bool("parallel", true, "run member turns and aggregator flushes concurrently (false = deterministic serial rounds)")
	chaos := flag.Bool("chaos", false, "inject seeded transport faults (drops, delays, duplicates, disconnects, partitions), replicate the root, and crash its leader mid-campaign under -churn")
	seed := flag.Int64("seed", 1, "chaos fault-schedule seed (with -chaos)")
	simulate := flag.Bool("sim", false, "simulate the campaign (internal/community/sim): the same schedule over synchronous loopbacks with memoized executions, no goroutine per connection — the shape for -nodes 100000 and beyond; forces serial rounds")
	flag.Parse()

	conf := soakFlags{
		nodes: *nodes, aggregators: *aggregators, rounds: *rounds,
		exploits: *exploits, batch: *batch, recorders: *recorders,
		workers: *workers, scope: *scope, adversaries: *adversaries,
		churn: *churn, crashPerRound: *crashPerRound, joinPerRound: *joinPerRound,
		expanded: *expanded, asJSON: *asJSON,
		profile: *profile, metricsPath: *metrics, parallel: *parallel,
		chaos: *chaos, seed: *seed, sim: *simulate,
	}
	if err := run(conf); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

// soakFlags carries the parsed command line.
type soakFlags struct {
	nodes, aggregators, rounds  int
	exploits                    string
	batch                       bool
	recorders, workers, scope   int
	adversaries                 int
	churn                       bool
	crashPerRound, joinPerRound int
	expanded, asJSON            bool
	profile                     bool
	metricsPath                 string
	parallel                    bool
	chaos                       bool
	seed                        int64
	sim                         bool
}

func run(f soakFlags) error {
	fmt.Fprintf(os.Stderr, "building webapp and learning invariants (expanded corpus: %v)...\n", f.expanded)
	setup, err := redteam.NewSetup(f.expanded)
	if err != nil {
		return err
	}

	byID := map[string]redteam.Exploit{}
	for _, ex := range redteam.AllExploits() {
		byID[ex.Bugzilla] = ex
	}
	var attacks []community.SoakAttack
	for _, id := range strings.Split(f.exploits, ",") {
		id = strings.TrimSpace(id)
		ex, ok := byID[id]
		if !ok {
			return fmt.Errorf("unknown exploit %q", id)
		}
		attacks = append(attacks, community.SoakAttack{
			Label: ex.Bugzilla,
			Input: redteam.AttackInput(setup.App, ex, 0),
		})
	}

	conf := community.SoakConfig{
		Image:           setup.App.Image,
		Seed:            setup.DB,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		Nodes:           f.nodes,
		Rounds:          f.rounds,
		Attacks:         attacks,
		Benign:          redteam.EvaluationPages()[:5],
		Aggregators:     f.aggregators,
		Adversaries:     f.adversaries,
		Batched:         f.batch,
		Recorders:       f.recorders,
		ReplayWorkers:   f.workers,
		StackScope:      f.scope,
	}
	if f.churn {
		conf.Churn = &community.ChurnConfig{
			CrashPerRound: f.crashPerRound,
			JoinPerRound:  f.joinPerRound,
		}
		if f.aggregators >= 2 {
			conf.Churn.AggregatorCrashRound = 3
		}
	}
	if f.chaos {
		conf.Chaos = community.DefaultChaos(f.seed)
		conf.RootReplicas = 1
		if conf.Churn != nil {
			// Crash the root leader mid-campaign; the community must fail
			// over to the promoted follower and still converge.
			conf.Churn.RootCrashRound = f.rounds/2 + 1
		}
	}

	var reg *obs.Registry
	if f.profile || f.metricsPath != "" {
		reg = obs.New()
		conf.Obs = reg
		conf.PprofLabels = f.profile
	}
	// Parallel member turns and flushes create the real contended shape a
	// deployed community has; they surrender run-to-run determinism, which
	// only the convergence verdict (not any golden output) depends on here.
	// Under chaos the flushes stay serial: every flush applies twice (leader
	// + follower) behind the replication lock, and a 32-way flush convoy
	// there would outlast the retry policy's patience. A simulated soak is
	// serial, so -sim forces both off.
	conf.ParallelMembers = f.parallel && !f.sim
	conf.ParallelFlush = f.parallel && !f.chaos && !f.sim

	mode := "goroutine-per-node"
	if f.sim {
		mode = "simulated"
	}
	fmt.Fprintf(os.Stderr, "soaking %d nodes (%d aggregators, %d adversaries, churn: %v) x %d attacks (batched: %v, %s)...\n",
		f.nodes, f.aggregators, f.adversaries, f.churn, len(attacks), f.batch, mode)
	start := time.Now()
	var rep *community.SoakReport
	if f.sim {
		var simRep *sim.Report
		simRep, err = sim.Run(conf)
		if simRep != nil {
			rep = &simRep.SoakReport
			fmt.Fprintf(os.Stderr, "sim: %d schedule steps, %d memo hits / %d misses / %d genuine runs\n",
				simRep.Events, simRep.MemoHits, simRep.MemoMisses, simRep.GenuineRuns)
		}
	} else {
		rep, err = community.RunSoak(conf)
	}
	elapsed := time.Since(start)
	if err != nil {
		// The soak died mid-campaign. Emit whatever telemetry accumulated
		// anyway — a partial per-stage table is exactly what diagnoses a
		// hang or a convergence stall.
		emitTelemetry(f, reg, elapsed)
		return err
	}

	if f.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		emitTelemetry(f, reg, elapsed)
		return soakVerdict(rep, f.rounds)
	}

	// The machine-readable table: one TSV row per defect plus a summary.
	fmt.Printf("defect\tfailure_pc\tmonitor\tadopted_repair\trounds\tagree\tconverged\n")
	for _, d := range rep.Defects {
		fmt.Printf("%s\t%#x\t%s\t%s\t%d\t%d\t%v\n",
			d.Label, d.FailurePC, d.Monitor, d.Adopted, d.Rounds, d.Agree, d.Converged)
	}
	fmt.Printf("\nnodes=%d aggregators=%d rounds=%d batched=%v messages=%d batches=%d replay_runs=%d\n",
		rep.Nodes, rep.Aggregators, rep.RoundsRun, rep.Batched, rep.Messages, rep.Batches, rep.ReplayRuns)
	fmt.Printf("churn: crashes=%d rejoins=%d joins=%d aggregator_failovers=%d\n",
		rep.Crashes, rep.Rejoins, rep.Joins, rep.AggregatorFailovers)
	fmt.Printf("quarantined=%d (%v) quarantined_adoptions=%d\n",
		len(rep.Quarantined), rep.Quarantined, rep.QuarantinedAdoptions)
	if f.chaos {
		fmt.Printf("chaos: dropped=%d retries=%d reconnects=%d root_failovers=%d replay_log=%d\n",
			rep.DroppedEnvelopes, rep.Retries, rep.Reconnects, rep.RootFailovers, rep.ReplayLogEntries)
	}
	fmt.Printf("converged=%v elapsed=%v\n", rep.Converged, elapsed.Round(time.Millisecond))
	emitTelemetry(f, reg, elapsed)
	return soakVerdict(rep, f.rounds)
}

// emitTelemetry prints the per-stage profile table (-profile) and writes
// the JSON snapshot (-metrics). It runs on every exit path — success,
// convergence failure, and mid-campaign error — so the telemetry is never
// lost with the verdict.
func emitTelemetry(f soakFlags, reg *obs.Registry, elapsed time.Duration) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if f.profile {
		fmt.Println()
		fmt.Print(obs.FormatStageTable(&snap))
		if user, sys, ok := obs.ProcessCPU(); ok {
			fmt.Printf("process: wall=%v cpu_user=%v cpu_sys=%v\n",
				elapsed.Round(time.Millisecond), user.Round(time.Millisecond), sys.Round(time.Millisecond))
		}
		if top := obs.TopBlockedStage(&snap); top != nil && top.BlockedNs > 0 {
			line := fmt.Sprintf("top blocked stage: %s (%.0f%% blocked", top.Name, 100*top.BlockedShare())
			if pt := top.TopPoint(); pt != nil {
				line += fmt.Sprintf(", mostly on %s", pt.Point)
			}
			fmt.Println(line + ")")
		}
	}
	if f.metricsPath != "" {
		data, err := json.MarshalIndent(&snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak: encoding metrics:", err)
			return
		}
		data = append(data, '\n')
		if f.metricsPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(f.metricsPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "soak: writing metrics:", err)
		}
	}
}

// soakVerdict turns the report into the process exit status: the soak
// fails if the community did not converge, or if a quarantined node
// contributed an adopted patch.
func soakVerdict(rep *community.SoakReport, rounds int) error {
	if rep.QuarantinedAdoptions != 0 {
		return fmt.Errorf("%d adopted repairs were driven by quarantined nodes", rep.QuarantinedAdoptions)
	}
	if !rep.Converged {
		return fmt.Errorf("community did not converge within %d rounds", rounds)
	}
	return nil
}
