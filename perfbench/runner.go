package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// setUps is how many from-scratch set-ups a run times; setup_s is their
// median. warmSetUps untimed set-ups come first. One cold set-up swings by
// a factor of two between processes, and the first few of a process run
// slower than the rest; the median of many warm ones, each after a forced
// GC, holds still.
const (
	setUps     = 41
	warmSetUps = 5
)

// maxOps caps the ops in one run: the latency buffer has one slot per op.
const maxOps = 1 << 22

// workload is one of the paper's evaluations.
type workload struct {
	// tail is the percentile reported as tail_ms. Chosen with --steady: the
	// highest that holds still from run to run and keeps ten samples beyond
	// it in a run of the default length.
	tail float64
	// prepare generates the workload's inputs, untimed, and returns the
	// program's set-up, which the benchmark times.
	prepare func() (setUp func(tr *tracer) (env, error), err error)
}

var workloads = map[string]workload{
	"pageload":  {tail: 99, prepare: preparePageload},
	"repair":    {tail: 95, prepare: prepareRepair},
	"community": {tail: 85, prepare: prepareCommunity},
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// env is a workload after set-up: the program state the ops run against
// and the benchmark's own inputs and reference outputs.
type env interface {
	// references computes the benchmark's reference outputs, untimed.
	references() error
	// passLen is the number of inputs; a pass runs each exactly once.
	passLen() int
	// op runs input i and checks the program's output. An error is a
	// failed op. tr, when non-nil, records the layers the op crosses.
	op(i int, tr *tracer) (outcome, error)
	// learned lists what set-up learned, for the traced split of learning.
	learned() []learnedDB
}

// outcome is what one op contributes to presentations_per_patch: the
// presentations it took to produce the patches it produced or ran under.
type outcome struct {
	presentations, patches int
}

// window is one timed stretch of whole passes.
type window struct {
	ops, failed   int
	lat           []int64 // per-op latency in ns
	allocBytes    float64
	allocObjects  float64
	gcCPU, allCPU float64
	presentations float64
	patches       float64
}

// passRate is the median over passes of each pass's ops per second. Every
// pass does the same work, so the median keeps a burst of load from
// elsewhere on the machine, which slows a few passes, out of the rate.
func (w *window) passRate(n int) float64 {
	rates := make([]float64, 0, len(w.lat)/n)
	for p := 0; p+n <= len(w.lat); p += n {
		var busy int64
		for _, d := range w.lat[p : p+n] {
			busy += d
		}
		rates = append(rates, float64(n)/time.Duration(busy).Seconds())
	}
	slices.Sort(rates)
	return median(rates)
}

// order shuffles the inputs of each pass from the run's seed.
type order struct {
	rng  *rand.Rand
	perm []int
}

func newOrder(seed uint64, n int) *order {
	o := &order{rng: rand.New(rand.NewPCG(seed, 0x5eed)), perm: make([]int, n)}
	for i := range o.perm {
		o.perm[i] = i
	}
	return o
}

func (o *order) next() []int {
	for i := len(o.perm) - 1; i > 0; i-- {
		j := o.rng.IntN(i + 1)
		o.perm[i], o.perm[j] = o.perm[j], o.perm[i]
	}
	return o.perm
}

// latencyBuffer maps the per-op latency buffer outside the Go heap, so the
// benchmark's own bookkeeping neither shows in live_heap_mb nor changes
// when the collector runs. Pages are committed only as they are written.
func latencyBuffer() ([]int64, func(), error) {
	raw, err := syscall.Mmap(-1, 0, maxOps*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map latency buffer: %w", err)
	}
	buf := unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), maxOps)
	return buf, func() { _ = syscall.Munmap(raw) }, nil
}

// runtimeStats reads the process counters a window is charged with.
type runtimeStats struct {
	samples []metrics.Sample
}

func newRuntimeStats() *runtimeStats {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/gc/heap/live:bytes",
	}
	s := &runtimeStats{samples: make([]metrics.Sample, len(names))}
	for i, name := range names {
		s.samples[i].Name = name
	}
	return s
}

// read returns allocated bytes, allocated objects, GC CPU seconds, total
// CPU seconds and live heap bytes.
func (s *runtimeStats) read() [5]float64 {
	metrics.Read(s.samples)
	var out [5]float64
	for i, sm := range s.samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = sm.Value.Float64()
		}
	}
	return out
}

// liveHeap forces a collection and returns the bytes it found live.
func (s *runtimeStats) liveHeap() float64 {
	runtime.GC()
	return s.read()[4]
}

// setUpMany runs set-up from scratch setUps times, each after a forced GC,
// and returns the last environment and the median set-up time in seconds.
// The warm-up set-ups are not traced.
func setUpMany(setUp func(*tracer) (env, error), tr *tracer) (env, []float64, error) {
	times := make([]float64, setUps)
	var e env
	for i := -warmSetUps; i < setUps; i++ {
		e = nil // the previous set-up is garbage before the GC, not during the timing
		runtime.GC()
		var err error
		if i < 0 {
			e, err = setUp(nil)
		} else {
			start := time.Now()
			e, err = setUp(tr)
			times[i] = time.Since(start).Seconds()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	slices.Sort(times)
	return e, times, nil
}

// runWindow runs whole passes until d has elapsed, timing every op. The
// latency of input i in pass p goes to lat[p*n+i].
func runWindow(e env, ord *order, d time.Duration, lat []int64, rt *runtimeStats, tr *tracer, log io.Writer) window {
	var w window
	n := e.passLen()
	before := rt.read()
	start := time.Now()
	for w.ops+n <= len(lat) && (w.ops == 0 || time.Since(start) < d) {
		pass := lat[w.ops : w.ops+n]
		for _, i := range ord.next() {
			t0 := time.Now()
			out, err := e.op(i, tr)
			pass[i] = int64(time.Since(t0))
			w.ops++
			w.presentations += float64(out.presentations)
			w.patches += float64(out.patches)
			if err != nil {
				w.failed++
				if w.failed <= 5 {
					fmt.Fprintf(log, "perfbench: op %d (input %d) failed: %v\n", w.ops, i, err)
				}
			}
		}
	}
	after := rt.read()
	w.lat = lat[:w.ops]
	w.allocBytes = after[0] - before[0]
	w.allocObjects = after[1] - before[1]
	w.gcCPU = after[2] - before[2]
	w.allCPU = after[3] - before[3]
	return w
}

// typical is the median over inputs of each input's mean latency: the
// p50 of one pass, with the noise of single ops averaged out. With a
// dozen inputs of very different cost, the plain p50 of all ops sits on
// the edge between two inputs and jumps with either. The mean, not the
// median, of each input: whether a GC cycle lands inside a short op is a
// coin toss, and a median flips between the two outcomes.
func (w *window) typical(n int) float64 {
	perInput := make([]float64, n)
	for i := range perInput {
		var sum int64
		for p := i; p < len(w.lat); p += n {
			sum += w.lat[p]
		}
		perInput[i] = float64(sum) / float64(len(w.lat)/n)
	}
	slices.Sort(perInput)
	return median(perInput)
}

// median of sorted values, the mean of the middle two for an even count.
func median[T int64 | float64](sorted []T) float64 {
	k := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return float64(sorted[k])
	}
	return (float64(sorted[k-1]) + float64(sorted[k])) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(0, min(rank, len(sorted))-1)]
}

// beyond is how many of n samples lie past the nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

// tail is the median over consecutive slices of the run of each slice's
// p-th percentile latency, with as many slices, up to five, as leave ten
// samples beyond the percentile in each. A burst of load from elsewhere on
// the machine then moves one slice's tail, not the run's. It sorts the
// latency buffer in place.
func (w *window) tail(n int, p float64) float64 {
	passes := len(w.lat) / n
	parts := max(1, min(5, passes, beyond(len(w.lat), p)/10))
	tails := make([]int64, parts)
	for s := range tails {
		part := w.lat[s*passes/parts*n : (s+1)*passes/parts*n]
		slices.Sort(part)
		tails[s] = percentile(part, p)
	}
	slices.Sort(tails)
	return median(tails)
}

// started is a workload after set-up, references and one warm-up pass.
type started struct {
	env     env
	setupS  []float64 // sorted set-up times in seconds
	ord     *order
	lat     []int64
	release func()
	rt      *runtimeStats
}

func start(w workload, seed uint64, setupTr *tracer, log io.Writer) (*started, error) {
	setUp, err := w.prepare()
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	e, setupS, err := setUpMany(setUp, setupTr)
	if err != nil {
		return nil, err
	}
	if err := e.references(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	lat, release, err := latencyBuffer()
	if err != nil {
		return nil, err
	}
	s := &started{env: e, setupS: setupS, ord: newOrder(seed, e.passLen()), lat: lat, release: release, rt: newRuntimeStats()}
	// One untimed pass lets lazy runtime set-up finish before timing.
	if warm := runWindow(e, s.ord, 0, lat, s.rt, nil, log); warm.failed > 0 {
		release()
		return nil, fmt.Errorf("warm-up pass: %d of %d ops failed", warm.failed, warm.ops)
	}
	return s, nil
}

// measureEndToEnd is the --trace 0 run.
func measureEndToEnd(w workload, seed uint64, d time.Duration, meta map[string]any, log io.Writer) (result, error) {
	s, err := start(w, seed, nil, log)
	if err != nil {
		return result{}, err
	}
	defer s.release()
	win := runWindow(s.env, s.ord, d, s.lat, s.rt, nil, log)
	live := s.rt.liveHeap()
	runtime.KeepAlive(s.env)

	n := s.env.passLen()
	rate, p50, tail := win.passRate(n), win.typical(n), win.tail(n, w.tail)
	meta["samples"] = win.ops
	meta["tail_percentile"] = w.tail
	meta["samples_beyond_tail"] = beyond(win.ops, w.tail)
	meta["setup_s_quartiles"] = []float64{s.setupS[setUps/4], s.setupS[setUps/2], s.setupS[setUps*3/4]}
	return result{
		Correct:   win.failed == 0,
		Attempted: win.ops,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"setup_s":                 {median(s.setupS), "s"},
			"ops_per_s":               {rate, "1/s"},
			"p50_ms":                  {p50 / 1e6, "ms"},
			"tail_ms":                 {tail / 1e6, "ms"},
			"alloc_kb_per_op":         {win.allocBytes / float64(win.ops) / 1024, "KiB"},
			"live_heap_mb":            {live / (1 << 20), "MiB"},
			"presentations_per_patch": {win.presentations / win.patches, "count"},
		},
	}, nil
}

// measureLayers is the --trace 1 run: an untraced window, then a traced
// one of the same length, then the traced split of set-up's learning. The
// runtime's own counters come from the untraced window, which the
// tracer's bookkeeping does not disturb.
func measureLayers(w workload, seed uint64, d time.Duration, meta map[string]any, log io.Writer) (result, error) {
	setupTr := newTracer()
	s, err := start(w, seed, setupTr, log)
	if err != nil {
		return result{}, err
	}
	defer s.release()
	half := d / 2
	plain := runWindow(s.env, s.ord, half, s.lat, s.rt, nil, log)
	plainRate := plain.passRate(s.env.passLen()) // before the traced window reuses the buffer
	opsTr := newTracer()
	traced := runWindow(s.env, s.ord, half, s.lat, s.rt, opsTr, log)
	tracedRate := traced.passRate(s.env.passLen())
	for i := 0; i < setUps; i++ {
		if err := splitLearn(s.env.learned(), setupTr); err != nil {
			return result{}, err
		}
	}
	overhead := 0.0
	if p, ok := s.env.(*pageEnv); ok {
		if overhead, err = p.monitorOverhead(); err != nil {
			return result{}, err
		}
	}

	ops := float64(traced.ops)
	perOp := func(name string, unit time.Duration) float64 { return opsTr.total(name) / float64(unit) / ops }
	perSetUp := func(name string) float64 { return setupTr.total(name) / float64(time.Millisecond) / setUps }
	nsPerStep := 0.0
	if steps := opsTr.count("vm.steps"); steps > 0 {
		nsPerStep = opsTr.total("vm.run") / steps
	}
	memoFrac := 0.0
	if eligible := opsTr.count("sim.memo_hits") + opsTr.count("sim.memo_misses") + opsTr.count("sim.genuine_runs"); eligible > 0 {
		memoFrac = opsTr.count("sim.memo_hits") / eligible
	}
	m := map[string]metric{
		"vm.new_us":                 {perOp("vm.new", time.Microsecond), "us"},
		"vm.blocks_decoded":         {opsTr.count("vm.blocks_decoded") / ops, "count"},
		"runtime.allocs_per_op":     {plain.allocObjects / float64(plain.ops), "count"},
		"runtime.gc_cpu_frac":       {plain.gcCPU / plain.allCPU, "frac"},
		"vm.run_us":                 {perOp("vm.run", time.Microsecond), "us"},
		"vm.steps":                  {opsTr.count("vm.steps") / ops, "count"},
		"vm.ns_per_step":            {nsPerStep, "ns"},
		"vm.hook_runs":              {opsTr.count("vm.hook_runs") / ops, "count"},
		"monitor.overhead_x":        {overhead, "x"},
		"correlate.check_execs":     {opsTr.count("correlate.check_execs") / ops, "count"},
		"correlate.check_run_ms":    {opsTr.count("correlate.check_run_ms") / ops, "ms"},
		"correlate.build_checks_ms": {opsTr.count("correlate.build_checks_ms") / ops, "ms"},
		"core.execute_ms":           {perOp("core.execute", time.Millisecond), "ms"},
		"repair.candidates":         {opsTr.count("repair.candidates") / ops, "count"},
		"repair.build_ms":           {opsTr.count("repair.build_ms") / ops, "ms"},
		"evaluate.unsuccessful":     {opsTr.count("evaluate.unsuccessful") / ops, "count"},
		"evaluate.repair_run_ms":    {opsTr.count("evaluate.repair_run_ms") / ops, "ms"},
		"core.learn_ms":             {perSetUp("core.learn"), "ms"},
		"trace.run_ms":              {perSetUp("trace.run"), "ms"},
		"trace.observations":        {setupTr.count("trace.observations") / setUps, "count"},
		"daikon.finalize_ms":        {perSetUp("daikon.finalize"), "ms"},
		"daikon.invariants":         {setupTr.count("daikon.invariants") / setUps, "count"},
		"community.mgr_handle_ms":   {perOp("community.mgr_handle", time.Millisecond), "ms"},
		"community.agg_handle_ms":   {perOp("community.agg_handle", time.Millisecond), "ms"},
		"community.flush_ms":        {perOp("community.flush", time.Millisecond), "ms"},
		"community.node_sync_ms":    {perOp("community.node_sync", time.Millisecond), "ms"},
		"community.node_execute_ms": {perOp("community.node_execute", time.Millisecond), "ms"},
		"community.mgr_msgs":        {opsTr.count("community.mgr_msgs") / ops, "count"},
		"sim.events":                {opsTr.count("sim.events") / ops, "count"},
		"sim.memo_hit_frac":         {memoFrac, "frac"},
		"replay.runs":               {opsTr.count("replay.runs") / ops, "count"},
		"replay.farm_ms":            {perOp("replay.farm", time.Millisecond), "ms"},
		"replay.vet_ms":             {perOp("replay.vet", time.Millisecond), "ms"},
		"bench.trace_overhead_x":    {plainRate / tracedRate, "x"},
	}

	fmt.Fprintf(log, "set-up (per set-up, median of %d set-ups %.2f ms):\n", setUps, median(s.setupS)*1e3)
	setupTr.table(log, setUps)
	fmt.Fprintf(log, "ops (per op, %d traced ops, %.1f ops/s traced vs %.1f untraced):\n",
		traced.ops, tracedRate, plainRate)
	opsTr.table(log, ops)

	meta["samples"] = traced.ops
	meta["untraced_samples"] = plain.ops
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    failed,
		Metrics:   m,
	}, nil
}
