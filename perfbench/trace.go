package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// tracer times layers from the benchmark's side of each public call. A
// span's self time is its duration minus what its child spans cover. A
// nil tracer records nothing and costs nothing, so the untraced run does
// not pay for it.
type tracer struct {
	stack  []frame
	layers map[string]*layer
	names  []string // first-seen order, for the table
	counts map[string]float64
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

// layer accumulates one layer's spans. program marks a stage the program
// timed itself, read from its obs registry.
type layer struct {
	parent      string
	program     bool
	calls       int64
	total, self time.Duration
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layer{}, counts: map[string]float64{}}
}

func (t *tracer) layer(name, parent string) *layer {
	l, ok := t.layers[name]
	if !ok {
		l = &layer{parent: parent}
		t.layers[name] = l
		t.names = append(t.names, name)
	}
	return l
}

// begin opens a span; end closes the innermost one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	parent := ""
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].name
		t.stack[len(t.stack)-1].child += d
	}
	l := t.layer(f.name, parent)
	l.calls++
	l.total += d
	l.self += d - f.child
}

// add accumulates a count.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// stage charges a stage from the program's obs registry as the layer
// name. With a parent, the stage runs inside that benchmark span, whose
// self time excludes it.
func (t *tracer) stage(snap *obs.Snapshot, stage, name, parent string) {
	st := snap.Stage(stage)
	if st == nil {
		return
	}
	l := t.layer(name, parent)
	l.program = true
	l.calls += st.Spans
	l.total += time.Duration(st.WallNs)
	if p := t.layers[parent]; p != nil {
		p.self -= time.Duration(st.WallNs)
	}
}

// total is a layer's summed time in ns.
func (t *tracer) total(name string) float64 {
	if l := t.layers[name]; l != nil {
		return float64(l.total)
	}
	return 0
}

func (t *tracer) count(name string) float64 { return t.counts[name] }

// table prints every layer's calls, total and self time per unit (per op
// or per set-up), then the counts.
func (t *tracer) table(w io.Writer, per float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tparent\ttimed by\tcalls\ttotal ms\tself ms")
	for _, name := range t.names {
		l := t.layers[name]
		by, self := "benchmark", fmt.Sprintf("%.4f", float64(max(l.self, 0))/1e6/per)
		if l.program {
			by, self = "program obs", "-"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%.2f\t%.4f\t%s\n", name, l.parent, by,
			float64(l.calls)/per, float64(l.total)/1e6/per, self)
	}
	counts := make([]string, 0, len(t.counts))
	for name := range t.counts {
		counts = append(counts, name)
	}
	sort.Strings(counts)
	for _, name := range counts {
		fmt.Fprintf(tw, "  %s\t\tcount\t\t%.2f\t\n", name, t.counts[name]/per)
	}
	_ = tw.Flush()
}
