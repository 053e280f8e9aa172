package community

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/repair"
	"repro/internal/replay"
	"repro/internal/webapp"
)

// gobRoundTrip is the codec's oracle: v through gob and back into a fresh
// value, returned by pointer as decodePayload returns it.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := gob.NewDecoder(&buf).DecodeValue(out); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return out.Interface()
}

// payloadValue is v's value behind decodePayload's pointer, the form
// encodePayload takes.
func payloadValue(v any) any { return reflect.ValueOf(v).Elem().Interface() }

// wireGen draws payload values that stress the gob equivalences: slices
// nil, empty or populated, pointers nil or pointing at a zero value, maps
// nil, empty or populated, and integers at both ends of their ranges.
type wireGen struct{ *rand.Rand }

func (g wireGen) str() string {
	switch g.Intn(4) {
	case 0:
		return ""
	case 1:
		return "\x00\xff\u00e9" // non-ASCII, invalid UTF-8 included
	}
	b := make([]byte, 1+g.Intn(12))
	for i := range b {
		b[i] = byte('a' + g.Intn(26))
	}
	return string(b)
}

func (g wireGen) u32() uint32 {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	return g.Uint32() >> uint(g.Intn(32))
}

func (g wireGen) u64() uint64 {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return g.Uint64() >> uint(g.Intn(64))
}

func (g wireGen) i32() int32 {
	return [...]int32{0, -1, 1, math.MinInt32, math.MaxInt32, int32(g.Uint32())}[g.Intn(6)]
}

func (g wireGen) int() int {
	return [...]int{0, -1, -7, 3, math.MinInt, math.MaxInt}[g.Intn(6)]
}

// n is a slice length; -1 means nil.
func (g wireGen) n() int { return g.Intn(5) - 1 }

func (g wireGen) bytes() []byte {
	n := g.n()
	if n < 0 {
		return nil
	}
	b := make([]byte, n*7)
	g.Read(b)
	return b
}

func (g wireGen) u32s() []uint32 {
	n := g.n()
	if n < 0 {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = g.u32()
	}
	return vs
}

func (g wireGen) strs() []string {
	n := g.n()
	if n < 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

func (g wireGen) blobs() [][]byte {
	n := g.n()
	if n < 0 {
		return nil
	}
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = g.bytes()
	}
	return ps
}

func (g wireGen) invariant() daikon.Invariant {
	return daikon.Invariant{
		Kind:    daikon.Kind(g.Intn(256)),
		Var:     daikon.VarID{PC: g.u32(), Slot: uint8(g.Intn(256))},
		Var2:    daikon.VarID{PC: g.u32(), Slot: uint8(g.Intn(256))},
		Values:  g.u32s(),
		Bound:   g.i32(),
		Samples: g.u64(),
	}
}

func (g wireGen) report() RunReport {
	rep := RunReport{
		NodeID: g.str(), Seq: g.u64(), Outcome: uint8(g.Intn(256)), ExitCode: g.u32(),
	}
	switch g.Intn(3) {
	case 1:
		rep.Failure = &FailureInfo{}
	case 2:
		rep.Failure = &FailureInfo{PC: g.u32(), Monitor: g.str(), Kind: g.str(), Target: g.u32(), Stack: g.u32s()}
	}
	if n := g.n(); n >= 0 {
		rep.Observations = make([]correlate.Observation, n)
		for i := range rep.Observations {
			rep.Observations[i] = correlate.Observation{InvID: g.str(), FailureID: g.str(), Satisfied: g.Intn(2) == 0}
		}
	}
	return rep
}

func (g wireGen) batch() Batch {
	b := Batch{
		NodeID: g.str(), Recordings: g.blobs(), RecordingFrom: g.strs(), LearnDBs: g.blobs(),
		Aggregated: g.Intn(2) == 0, NodeIDs: g.strs(), Quarantined: g.strs(), FlushSeq: g.u64(),
	}
	if n := g.n(); n >= 0 {
		b.Reports = make([]RunReport, n)
		for i := range b.Reports {
			b.Reports[i] = g.report()
		}
	}
	return b
}

func (g wireGen) directives() Directives {
	d := Directives{Seq: g.u64(), LearnLo: g.u32(), LearnHi: g.u32()}
	if n := g.n(); n >= 0 {
		d.Checks = make([]CheckSpec, n)
		for i := range d.Checks {
			d.Checks[i] = CheckSpec{FailureID: g.str(), Invariant: g.invariant()}
		}
	}
	if n := g.n(); n >= 0 {
		d.Repairs = make([]replay.PatchSpec, n)
		for i := range d.Repairs {
			d.Repairs[i] = replay.PatchSpec{
				FailureID: g.str(), Invariant: g.invariant(), Strategy: repair.Strategy(g.Intn(256)),
				Value: g.u32(), SPDelta: g.u32(), PC: g.u32(), Depth: g.int(),
			}
		}
	}
	return d
}

func (g wireGen) directivesSet() DirectivesSet {
	set := DirectivesSet{Seq: g.u64()}
	if n := g.n(); n >= 0 {
		set.ByNode = make(map[string]Directives, n)
		for i := 0; i < n; i++ {
			set.ByNode[g.str()] = g.directives()
		}
	}
	return set
}

// wireCase is one payload value and its kind.
type wireCase struct {
	kind MsgKind
	v    any
}

// payloads draws one value of every payload type.
func (g wireGen) payloads() []wireCase {
	return []wireCase{
		{MsgHello, Hello{NodeID: g.str()}},
		{MsgLearnUpload, LearnUpload{NodeID: g.str(), DB: g.bytes()}},
		{MsgRunReport, g.report()},
		{MsgRecording, RecordingUpload{NodeID: g.str(), Recording: g.bytes()}},
		{MsgBatch, g.batch()},
		{MsgDirectives, g.directives()},
		{MsgDirectivesSet, g.directivesSet()},
	}
}

// checkRoundTrip: v's envelope decodes to exactly gob's round trip of v,
// and the decoded value re-encodes to the same bytes.
func checkRoundTrip(t *testing.T, kind MsgKind, v any) {
	t.Helper()
	env, err := NewEnvelope(kind, v)
	if err != nil {
		t.Fatalf("encode %v: %v", kind, err)
	}
	got, err := decodePayload(env.Kind, env.Payload)
	if err != nil {
		t.Fatalf("decode %v %+v: %v", kind, v, err)
	}
	if want := gobRoundTrip(t, v); !reflect.DeepEqual(got, want) {
		t.Fatalf("%v round trip differs from gob's:\n got %#v\nwant %#v", kind, got, want)
	}
	again, err := encodePayload(kind, payloadValue(got))
	if err != nil {
		t.Fatalf("re-encode %v: %v", kind, err)
	}
	if !bytes.Equal(again, env.Payload) {
		t.Fatalf("%v re-encodes to different bytes", kind)
	}
}

// TestEnvelopeRoundTrip is the codec's property test: for every payload
// type, the edge cases gob treats specially, generated values and every
// envelope a short soak sends decode to exactly what a gob round trip
// yields (reflect.DeepEqual), and re-encode to their own bytes. A decoded
// map iterates in random order, so the re-encoding also pins ByNode's
// sorted-key encoding.
func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []wireCase{
		{MsgRunReport, RunReport{NodeID: "x", Seq: 7, Outcome: 1, Failure: &FailureInfo{PC: 0x42, Stack: []uint32{1, 2}}}},
		{MsgHello, Hello{}},
		{MsgRunReport, RunReport{}},
		{MsgRunReport, RunReport{Failure: &FailureInfo{Stack: []uint32{}}, Observations: []correlate.Observation{}}},
		{MsgRunReport, RunReport{Seq: math.MaxUint64, ExitCode: math.MaxUint32, Outcome: math.MaxUint8,
			Failure: &FailureInfo{PC: math.MaxUint32, Target: math.MaxUint32, Stack: []uint32{math.MaxUint32, 0}}}},
		{MsgLearnUpload, LearnUpload{NodeID: "n", DB: []byte{}}},
		{MsgRecording, RecordingUpload{Recording: []byte{0}}},
		{MsgBatch, Batch{}},
		{MsgBatch, Batch{Reports: []RunReport{}, Recordings: [][]byte{{}, nil, {1}}, RecordingFrom: []string{""},
			LearnDBs: [][]byte{}, NodeIDs: []string{}, Quarantined: []string{"q"}, FlushSeq: math.MaxUint64}},
		{MsgDirectives, Directives{}},
		{MsgDirectives, Directives{Checks: []CheckSpec{{}}, Repairs: []replay.PatchSpec{{Depth: -1, Invariant: daikon.Invariant{Bound: math.MinInt32, Values: []uint32{}}}}}},
		{MsgDirectives, Directives{Seq: math.MaxUint64, LearnLo: math.MaxUint32, LearnHi: math.MaxUint32,
			Repairs: []replay.PatchSpec{{Depth: math.MinInt, Value: math.MaxUint32, SPDelta: math.MaxUint32, PC: math.MaxUint32,
				Invariant: daikon.Invariant{Bound: math.MaxInt32, Samples: math.MaxUint64}}}}},
		{MsgDirectivesSet, DirectivesSet{}},
		{MsgDirectivesSet, DirectivesSet{ByNode: map[string]Directives{}}},
		{MsgDirectivesSet, DirectivesSet{Seq: 3, ByNode: map[string]Directives{"": {}, "b": {Seq: 3}, "a": {Checks: []CheckSpec{}}}}},
	}
	for _, c := range cases {
		checkRoundTrip(t, c.kind, c.v)
	}
	g := wireGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 300; i++ {
		for _, c := range g.payloads() {
			checkRoundTrip(t, c.kind, c.v)
		}
	}
	kinds := map[MsgKind]bool{}
	for _, env := range soakEnvelopes(t) {
		v, err := decodePayload(env.Kind, env.Payload)
		if err != nil {
			t.Fatalf("soak %v envelope: %v", env.Kind, err)
		}
		checkRoundTrip(t, env.Kind, payloadValue(v))
		kinds[env.Kind] = true
	}
	for _, k := range []MsgKind{MsgHello, MsgLearnUpload, MsgRunReport, MsgRecording, MsgBatch, MsgDirectives, MsgDirectivesSet} {
		if !kinds[k] {
			t.Errorf("the soak sent no %v envelope", k)
		}
	}
}

// TestWireRejectsMalformed: a decoder accepts exactly the encoder's
// output. Each mutation of a valid payload is an error, never a panic or
// a silently different value.
func TestWireRejectsMalformed(t *testing.T) {
	env, err := NewEnvelope(MsgRunReport, RunReport{NodeID: "n0", Seq: 300, Failure: &FailureInfo{PC: 0x400c58}})
	if err != nil {
		t.Fatal(err)
	}
	p := env.Payload
	set, err := NewEnvelope(MsgDirectivesSet, DirectivesSet{ByNode: map[string]Directives{"a": {}, "b": {}}})
	if err != nil {
		t.Fatal(err)
	}
	swapped := bytes.Clone(set.Payload)
	ia, ib := bytes.IndexByte(swapped, 'a'), bytes.IndexByte(swapped, 'b')
	swapped[ia], swapped[ib] = 'b', 'a'
	for _, c := range []struct {
		name    string
		kind    MsgKind
		payload []byte
	}{
		{"empty", MsgRunReport, nil},
		{"unknown version", MsgRunReport, append([]byte{wireVersion + 1}, p[1:]...)},
		{"kind mismatch", MsgDirectives, p},
		{"payload-less kind", MsgAck, p},
		{"unknown kind", MsgKind(200), p},
		{"truncated", MsgRunReport, p[:len(p)-1]},
		{"trailing bytes", MsgRunReport, append(bytes.Clone(p), 0)},
		{"non-minimal varint", MsgHello, []byte{wireVersion, 0x80, 0x00}},
		{"overflowing varint", MsgHello, append([]byte{wireVersion}, bytes.Repeat([]byte{0xff}, 10)...)},
		{"bool out of range", MsgBatch, []byte{wireVersion, 0, 0, 0, 0, 0, 2, 0, 0, 0}},
		{"uint32 out of range", MsgDirectives, append(binary.AppendUvarint([]byte{wireVersion, 0, 0, 0}, math.MaxUint32+1), 0)},
		{"map keys out of order", MsgDirectivesSet, swapped},
		{"map keys repeated", MsgDirectivesSet, []byte{wireVersion, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	} {
		if _, err := decodePayload(c.kind, c.payload); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewEnvelope(MsgHello, RunReport{}); err == nil {
		t.Error("NewEnvelope accepted a run report as a hello")
	}
}

// TestWireHostilePrefixBounded: a count or length prefix claiming more
// elements than the payload could hold is rejected before anything is
// allocated for it. A 10-byte batch claiming 2^40 reports costs a few
// small allocations (the error), whatever the claim.
func TestWireHostilePrefixBounded(t *testing.T) {
	batch := func(reports uint64) []byte {
		p := binary.AppendUvarint([]byte{wireVersion, 0}, reports)
		return append(p, make([]byte, 10-len(p))...)
	}
	hostile := []struct {
		kind MsgKind
		p    []byte
	}{
		{MsgBatch, batch(1 << 40)},
		{MsgBatch, batch(1 << 20)},
		{MsgBatch, batch(2)}, // 2 reports need at least 12 bytes; 7 remain
		{MsgHello, binary.AppendUvarint([]byte{wireVersion}, 1<<40)},
		{MsgLearnUpload, binary.AppendUvarint([]byte{wireVersion, 0}, 1<<40)},
		{MsgRunReport, binary.AppendUvarint([]byte{wireVersion, 0, 0, 0, 0, 0}, 1<<40)},
		{MsgDirectives, binary.AppendUvarint([]byte{wireVersion, 0}, 1<<40)},
		{MsgDirectivesSet, binary.AppendUvarint([]byte{wireVersion, 0, 1}, 1<<40)},
	}
	if got := len(hostile[0].p); got != 10 {
		t.Fatalf("hostile batch is %d bytes, want 10", got)
	}
	const runs = 50
	for _, h := range hostile {
		if _, err := decodePayload(h.kind, h.p); err == nil {
			t.Fatalf("%v payload %x accepted", h.kind, h.p)
		}
		allocs := testing.AllocsPerRun(runs, func() { _, _ = decodePayload(h.kind, h.p) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = decodePayload(h.kind, h.p)
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if allocs > 10 || perRun > 1024 {
			t.Errorf("%v payload %x: %v allocations, %d bytes per decode", h.kind, h.p, allocs, perRun)
		}
	}
}

// soakEnvelopes captures every envelope — requests and replies, each
// distinct (kind, payload) once — of a short simulated soak: hierarchical
// and batched, with churn and both adversary classes, so every payload
// kind appears.
func soakEnvelopes(tb testing.TB) []Envelope {
	tb.Helper()
	app := webapp.MustBuild()
	seen := map[string]bool{}
	var envs []Envelope
	keep := func(e Envelope) {
		key := string(append([]byte{byte(e.Kind)}, e.Payload...))
		if !seen[key] {
			seen[key] = true
			envs = append(envs, e)
		}
	}
	capture := func(ep endpoint) Conn {
		inner := ep.handle
		ep.handle = func(env Envelope, bound *string) (Envelope, error) {
			keep(env)
			reply, err := inner(env, bound)
			if err == nil {
				keep(reply)
			}
			return reply, err
		}
		return loopback(ep)
	}
	for _, batched := range []bool{false, true} {
		conf := soakConfig(tb, app, 8, batched)
		conf.Rounds = 3
		conf.Aggregators = 2
		conf.Adversaries = 2
		conf.Churn = &ChurnConfig{CrashPerRound: 1, JoinPerRound: 1}
		if _, err := simulateSoak(conf, capture); err != nil {
			tb.Fatal(err)
		}
	}
	return envs
}

// FuzzDecodePayload: no kind byte and payload panics the decoder, and a
// payload it accepts re-encodes to exactly the same bytes. Seeded with
// every distinct envelope of a short simulated soak.
func FuzzDecodePayload(f *testing.F) {
	for _, env := range soakEnvelopes(f) {
		f.Add(byte(env.Kind), env.Payload)
	}
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		v, err := decodePayload(MsgKind(kind), payload)
		if err != nil {
			return
		}
		again, err := encodePayload(MsgKind(kind), payloadValue(v))
		if err != nil {
			t.Fatalf("accepted %v payload does not re-encode: %v", MsgKind(kind), err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %v payload re-encodes differently:\n in  %x\n out %x", MsgKind(kind), payload, again)
		}
	})
}
