package community

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// startManager spins up a manager with in-process connections for n nodes.
func startManager(t *testing.T, conf ManagerConfig, nodeIDs []string) (*Manager, []*Node) {
	t.Helper()
	m, err := NewManager(conf)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, len(nodeIDs))
	for i, id := range nodeIDs {
		nodeSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		nodes[i] = NewNode(id, conf.Image, nodeSide)
		if err := nodes[i].Connect(); err != nil {
			t.Fatal(err)
		}
	}
	return m, nodes
}

// redTeamManagerConfig is the exercise setup: pre-learned seed DB and the
// CFG bootstrap from the learning corpus.
func redTeamManagerConfig(t testing.TB, app *webapp.App) ManagerConfig {
	t.Helper()
	db, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ManagerConfig{
		Image:           app.Image,
		Seed:            db,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		StackScope:      1,
	}
}

func exploitByID(t testing.TB, id string) redteam.Exploit {
	t.Helper()
	for _, ex := range redteam.AllExploits() {
		if ex.Bugzilla == id {
			return ex
		}
	}
	t.Fatalf("unknown exploit %s", id)
	return redteam.Exploit{}
}

func TestProtectionWithoutExposure(t *testing.T) {
	// §3: after some members are attacked and a patch is found, the patch
	// is distributed to the whole community; members never exposed to the
	// attack are immune on first contact.
	app := webapp.MustBuild()
	m, nodes := startManager(t, redTeamManagerConfig(t, app), []string{"victim", "fresh"})
	victim, fresh := nodes[0], nodes[1]
	ex := exploitByID(t, "290162")
	attack := redteam.AttackInput(app, ex, 0)

	// The victim absorbs the attack until the community has a patch.
	patched := false
	for i := 0; i < 10 && !patched; i++ {
		res, err := victim.RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		patched = res.Outcome == vm.OutcomeExit && res.ExitCode == 0
	}
	if !patched {
		t.Fatal("victim never protected")
	}
	if st := m.CaseStates()[app.Labels["site_290162"]]; st != core.StatePatched {
		t.Fatalf("manager case state = %v", st)
	}

	// The fresh node must sync directives (it reports a benign run) and
	// then survive its FIRST exposure to the attack.
	if _, err := fresh.RunOnce(redteam.EvaluationPages()[0]); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Directives().Repairs) == 0 {
		t.Fatal("patch not distributed to the unexposed node")
	}
	res, err := fresh.RunOnce(attack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("unexposed node not immune: %+v", res)
	}
}

func TestCommunityFindsPatchAcrossMembers(t *testing.T) {
	// The attack presentations land on DIFFERENT members; the manager
	// still assembles the detection, checking, and evaluation phases from
	// the distributed reports.
	app := webapp.MustBuild()
	_, nodes := startManager(t, redTeamManagerConfig(t, app), []string{"n1", "n2", "n3"})
	ex := exploitByID(t, "296134")
	attack := redteam.AttackInput(app, ex, 0)

	var last vm.RunResult
	for i := 0; i < 8; i++ {
		res, err := nodes[i%len(nodes)].RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		last = res
		if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			if i+1 != 4 {
				t.Errorf("community patched after %d presentations, want 4", i+1)
			}
			return
		}
	}
	t.Fatalf("community never patched: %+v", last)
}

func TestAmortizedDistributedLearning(t *testing.T) {
	// §3.1: each member traces a slice of the application; the merged
	// community database contains invariants a single member's slice
	// could not produce, and the merge is sound (no member's data
	// contradicts it).
	app := webapp.MustBuild()
	conf := ManagerConfig{
		Image:           app.Image,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		LearnShards:     4,
	}
	m, nodes := startManager(t, conf, []string{"a", "b", "c", "d"})
	corpus := redteam.LearningCorpus()
	for _, n := range nodes {
		if n.Directives().LearnHi == n.Directives().LearnLo {
			t.Fatal("node has no learning assignment")
		}
		if _, err := n.RunOnce(corpus); err != nil {
			t.Fatal(err)
		}
		if err := n.UploadLearning(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Uploads() != 4 {
		t.Fatalf("uploads = %d", m.Uploads())
	}
	merged := m.InvariantCount()
	if merged == 0 {
		t.Fatal("no invariants learned")
	}
	// Distinct shards: different nodes contributed different regions.
	lo0 := nodes[0].Directives().LearnLo
	lo1 := nodes[1].Directives().LearnLo
	if lo0 == lo1 {
		t.Error("two nodes got the same learning shard")
	}
}

func TestDistributedLearningProtects(t *testing.T) {
	// End to end: a community that learned its database in shards can
	// still patch an exploit (the shard covering the vulnerable code
	// supplies the correlated invariant).
	app := webapp.MustBuild()
	conf := ManagerConfig{
		Image:           app.Image,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		LearnShards:     3,
	}
	_, nodes := startManager(t, conf, []string{"a", "b", "c"})
	corpus := redteam.LearningCorpus()
	// Several learning rounds per node to cover the corpus in each shard.
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if _, err := n.RunOnce(corpus); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if err := n.UploadLearning(); err != nil {
			t.Fatal(err)
		}
	}
	ex := exploitByID(t, "296134")
	attack := redteam.AttackInput(app, ex, 0)
	for i := 0; i < 10; i++ {
		res, err := nodes[0].RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			return
		}
	}
	t.Fatal("sharded-learning community never patched")
}

func TestConcurrentFailuresKeptSeparate(t *testing.T) {
	// §3.2 "Multiple Concurrent Failures": different members hit
	// different failures at the same time; all bookkeeping is keyed by
	// failure location, so both campaigns succeed.
	app := webapp.MustBuild()
	_, nodes := startManager(t, redTeamManagerConfig(t, app), []string{"x", "y"})
	exA := exploitByID(t, "290162")
	exB := exploitByID(t, "296134")
	attackA := redteam.AttackInput(app, exA, 0)
	attackB := redteam.AttackInput(app, exB, 0)

	patchedA, patchedB := false, false
	for i := 0; i < 10 && !(patchedA && patchedB); i++ {
		resA, err := nodes[0].RunOnce(attackA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := nodes[1].RunOnce(attackB)
		if err != nil {
			t.Fatal(err)
		}
		patchedA = patchedA || (resA.Outcome == vm.OutcomeExit && resA.ExitCode == 0)
		patchedB = patchedB || (resB.Outcome == vm.OutcomeExit && resB.ExitCode == 0)
	}
	if !patchedA || !patchedB {
		t.Fatalf("concurrent campaigns: A=%v B=%v", patchedA, patchedB)
	}
}

func TestTCPTransport(t *testing.T) {
	// The same protocol over real TCP: protection without exposure with
	// the manager behind a listener.
	app := webapp.MustBuild()
	m, err := NewManager(redTeamManagerConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); _ = m.Serve(c) }()
		}
	}()

	dial := func(id string) *Node {
		conn, err := Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(id, app.Image, conn)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	victim := dial("victim")
	fresh := dial("fresh")
	defer victim.Close()
	defer fresh.Close()

	ex := exploitByID(t, "312278")
	attack := redteam.AttackInput(app, ex, 0)
	patched := false
	for i := 0; i < 10 && !patched; i++ {
		res, err := victim.RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		patched = res.Outcome == vm.OutcomeExit && res.ExitCode == 0
	}
	if !patched {
		t.Fatal("victim never protected over TCP")
	}
	if _, err := fresh.RunOnce(redteam.EvaluationPages()[3]); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.RunOnce(attack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("unexposed TCP node not immune: %+v", res)
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	_ = a.Close()
	if err := <-done; err == nil {
		t.Fatal("recv on closed pipe returned nil error")
	}
}
