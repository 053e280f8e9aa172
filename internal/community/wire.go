package community

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/repair"
	"repro/internal/replay"
)

// This file is the community wire codec: one hand-written binary form for
// every payload kind. A payload is wireVersion followed by the message's
// fields in declaration order:
//
//   - uint8 fields as one byte; other unsigned integers (counts, lengths,
//     uint32 and uint64 fields) as minimal uvarints; signed ones (Bound,
//     Depth) as zigzag varints;
//   - strings and byte slices as a length, then the bytes;
//   - slices as a count, then each element;
//   - a pointer (RunReport.Failure) and a map (DirectivesSet.ByNode) as a
//     presence byte, then the value; the map's entries follow in
//     ascending key order, so equal values encode to equal bytes.
//
// A decoded value equals what a gob round trip of the encoded one yields:
// an empty slice decodes as nil, a nil pointer or map stays nil and a
// non-nil one stays non-nil, and every decode builds a fresh value that
// shares nothing with the payload or with earlier decodes.
//
// Decoding is bounded and strict. Every count and length prefix is
// checked against the bytes that remain before anything is allocated
// (each element needs at least its type's min* bytes), so a payload can
// make the decoder allocate at most a small constant factor of its own
// size. Non-minimal varints, bools other than 0 and 1, out-of-range
// integers, unsorted or repeated map keys, truncation and trailing bytes
// are all errors: a payload the decoder accepts re-encodes to exactly its
// own bytes.

// wireVersion leads every payload. A decoder rejects any other version.
const wireVersion = 1

// Minimum encoded sizes, in bytes, of the elements a count prefixes: each
// field's smallest encoding is one byte.
const (
	minInvariant   = 8                // Kind, Var (2), Var2 (2), Values, Bound, Samples
	minCheckSpec   = 1 + minInvariant // FailureID, Invariant
	minPatchSpec   = minCheckSpec + 5 // ..., Strategy, Value, SPDelta, PC, Depth
	minObservation = 3                // InvID, FailureID, Satisfied
	minRunReport   = 6                // NodeID, Seq, Outcome, ExitCode, Failure, Observations
	minDirectives  = 5                // Seq, Checks, Repairs, LearnLo, LearnHi
)

// NewEnvelope builds an envelope for a payload value: v is the kind's
// payload type (Hello for MsgHello, RunReport for MsgRunReport, and so
// on), passed by value.
func NewEnvelope(kind MsgKind, v any) (Envelope, error) {
	p, err := encodePayload(kind, v)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Kind: kind, Payload: p}, nil
}

// encodePayload is v's payload encoding; v must be kind's payload type.
func encodePayload(kind MsgKind, v any) ([]byte, error) {
	b := append(make([]byte, 0, 64), wireVersion)
	var got MsgKind
	switch p := v.(type) {
	case Hello:
		got, b = MsgHello, appendString(b, p.NodeID)
	case LearnUpload:
		got, b = MsgLearnUpload, appendBytes(appendString(b, p.NodeID), p.DB)
	case RunReport:
		got, b = MsgRunReport, appendReport(b, &p)
	case RecordingUpload:
		got, b = MsgRecording, appendBytes(appendString(b, p.NodeID), p.Recording)
	case Batch:
		got, b = MsgBatch, appendBatch(b, &p)
	case Directives:
		got, b = MsgDirectives, appendDirectives(b, &p)
	case DirectivesSet:
		got, b = MsgDirectivesSet, appendDirectivesSet(b, &p)
	default:
		return nil, fmt.Errorf("community: encode %v: %T is not a payload type", kind, v)
	}
	if got != kind {
		return nil, fmt.Errorf("community: encode %v: %T is a %v payload", kind, v, got)
	}
	return b, nil
}

// decodePayload decodes a payload of the given kind into a fresh value of
// the kind's type, returned by pointer (*Hello for MsgHello, and so on).
func decodePayload(kind MsgKind, p []byte) (any, error) {
	r := wireReader{b: p}
	if v := r.byte(); r.err == nil && v != wireVersion {
		r.fail("unknown wire version %d", v)
	}
	var v any
	switch kind {
	case MsgHello:
		v = &Hello{NodeID: r.str()}
	case MsgLearnUpload:
		v = &LearnUpload{NodeID: r.str(), DB: r.bytes()}
	case MsgRunReport:
		rep := r.report()
		v = &rep
	case MsgRecording:
		v = &RecordingUpload{NodeID: r.str(), Recording: r.bytes()}
	case MsgBatch:
		v = r.batch()
	case MsgDirectives:
		d := r.directives()
		v = &d
	case MsgDirectivesSet:
		v = r.directivesSet()
	default:
		return nil, fmt.Errorf("community: decode %v: the kind carries no payload", kind)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("community: decode %v: %w", kind, r.err)
	}
	return v, nil
}

// ---- encoders ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendU32(b []byte, v uint32) []byte { return binary.AppendUvarint(b, uint64(v)) }

// appendList encodes a slice as its count, then each element.
func appendList[T any](b []byte, vs []T, elem func([]byte, *T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for i := range vs {
		b = elem(b, &vs[i])
	}
	return b
}

func appendU32s(b []byte, vs []uint32) []byte {
	return appendList(b, vs, func(b []byte, v *uint32) []byte { return appendU32(b, *v) })
}

func appendStrings(b []byte, ss []string) []byte {
	return appendList(b, ss, func(b []byte, s *string) []byte { return appendString(b, *s) })
}

func appendBlobs(b []byte, ps [][]byte) []byte {
	return appendList(b, ps, func(b []byte, p *[]byte) []byte { return appendBytes(b, *p) })
}

func appendInvariant(b []byte, inv *daikon.Invariant) []byte {
	b = append(b, byte(inv.Kind))
	b = append(appendU32(b, inv.Var.PC), inv.Var.Slot)
	b = append(appendU32(b, inv.Var2.PC), inv.Var2.Slot)
	b = appendU32s(b, inv.Values)
	b = binary.AppendVarint(b, int64(inv.Bound))
	return binary.AppendUvarint(b, inv.Samples)
}

func appendObservation(b []byte, o *correlate.Observation) []byte {
	b = appendString(b, o.InvID)
	b = appendString(b, o.FailureID)
	return appendBool(b, o.Satisfied)
}

func appendReport(b []byte, rep *RunReport) []byte {
	b = appendString(b, rep.NodeID)
	b = binary.AppendUvarint(b, rep.Seq)
	b = append(b, rep.Outcome)
	b = appendU32(b, rep.ExitCode)
	b = appendBool(b, rep.Failure != nil)
	if f := rep.Failure; f != nil {
		b = appendU32(b, f.PC)
		b = appendString(b, f.Monitor)
		b = appendString(b, f.Kind)
		b = appendU32(b, f.Target)
		b = appendU32s(b, f.Stack)
	}
	return appendList(b, rep.Observations, appendObservation)
}

func appendBatch(b []byte, bt *Batch) []byte {
	b = appendString(b, bt.NodeID)
	b = appendList(b, bt.Reports, appendReport)
	b = appendBlobs(b, bt.Recordings)
	b = appendStrings(b, bt.RecordingFrom)
	b = appendBlobs(b, bt.LearnDBs)
	b = appendBool(b, bt.Aggregated)
	b = appendStrings(b, bt.NodeIDs)
	b = appendStrings(b, bt.Quarantined)
	return binary.AppendUvarint(b, bt.FlushSeq)
}

func appendCheck(b []byte, c *CheckSpec) []byte {
	return appendInvariant(appendString(b, c.FailureID), &c.Invariant)
}

func appendPatchSpec(b []byte, rs *replay.PatchSpec) []byte {
	b = appendInvariant(appendString(b, rs.FailureID), &rs.Invariant)
	b = append(b, byte(rs.Strategy))
	b = appendU32(b, rs.Value)
	b = appendU32(b, rs.SPDelta)
	b = appendU32(b, rs.PC)
	return binary.AppendVarint(b, int64(rs.Depth))
}

// appendDirectives encodes d. The encoding is self-delimiting and
// injective up to nil versus empty slices, which the execution memo
// relies on for its key.
func appendDirectives(b []byte, d *Directives) []byte {
	b = binary.AppendUvarint(b, d.Seq)
	b = appendList(b, d.Checks, appendCheck)
	b = appendList(b, d.Repairs, appendPatchSpec)
	b = appendU32(b, d.LearnLo)
	return appendU32(b, d.LearnHi)
}

func appendDirectivesSet(b []byte, set *DirectivesSet) []byte {
	b = binary.AppendUvarint(b, set.Seq)
	b = appendBool(b, set.ByNode != nil)
	if set.ByNode == nil {
		return b
	}
	ids := make([]string, 0, len(set.ByNode))
	for id := range set.ByNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		d := set.ByNode[id]
		b = appendDirectives(appendString(b, id), &d)
	}
	return b
}

// ---- decoder ----

// wireReader consumes a payload. The first error sticks: it empties the
// reader, so every later read fails fast and returns a zero value, and the
// caller checks err once at the end.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated payload")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *wireReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bool is neither 0 nor 1")
	return false
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a zigzag varint, the inverse of binary.AppendVarint.
func (r *wireReader) varint() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (r *wireReader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("%d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (r *wireReader) i32() int32 {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("%d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("%d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads a count of elements encoded in at least min bytes each, and
// rejects it unless that many fit in the bytes that remain.
func (r *wireReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count %d exceeds the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *wireReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *wireReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b)
	r.b = r.b[n:]
	return p
}

// readList reads a count of elements encoded in at least min bytes each,
// then each element; an empty list decodes as nil.
func readList[T any](r *wireReader, min int, elem func() T) []T {
	n := r.count(min)
	if n == 0 {
		return nil
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = elem()
	}
	return vs
}

func (r *wireReader) invariant() daikon.Invariant {
	return daikon.Invariant{
		Kind:    daikon.Kind(r.byte()),
		Var:     daikon.VarID{PC: r.u32(), Slot: r.byte()},
		Var2:    daikon.VarID{PC: r.u32(), Slot: r.byte()},
		Values:  readList(r, 1, r.u32),
		Bound:   r.i32(),
		Samples: r.uvarint(),
	}
}

func (r *wireReader) observation() correlate.Observation {
	return correlate.Observation{InvID: r.str(), FailureID: r.str(), Satisfied: r.bool()}
}

func (r *wireReader) report() RunReport {
	rep := RunReport{NodeID: r.str(), Seq: r.uvarint(), Outcome: r.byte(), ExitCode: r.u32()}
	if r.bool() {
		rep.Failure = &FailureInfo{PC: r.u32(), Monitor: r.str(), Kind: r.str(), Target: r.u32(),
			Stack: readList(r, 1, r.u32)}
	}
	rep.Observations = readList(r, minObservation, r.observation)
	return rep
}

func (r *wireReader) batch() *Batch {
	return &Batch{
		NodeID:        r.str(),
		Reports:       readList(r, minRunReport, r.report),
		Recordings:    readList(r, 1, r.bytes),
		RecordingFrom: readList(r, 1, r.str),
		LearnDBs:      readList(r, 1, r.bytes),
		Aggregated:    r.bool(),
		NodeIDs:       readList(r, 1, r.str),
		Quarantined:   readList(r, 1, r.str),
		FlushSeq:      r.uvarint(),
	}
}

func (r *wireReader) check() CheckSpec {
	return CheckSpec{FailureID: r.str(), Invariant: r.invariant()}
}

func (r *wireReader) patchSpec() replay.PatchSpec {
	return replay.PatchSpec{FailureID: r.str(), Invariant: r.invariant(), Strategy: repair.Strategy(r.byte()),
		Value: r.u32(), SPDelta: r.u32(), PC: r.u32(), Depth: r.int()}
}

func (r *wireReader) directives() Directives {
	return Directives{
		Seq:     r.uvarint(),
		Checks:  readList(r, minCheckSpec, r.check),
		Repairs: readList(r, minPatchSpec, r.patchSpec),
		LearnLo: r.u32(),
		LearnHi: r.u32(),
	}
}

func (r *wireReader) directivesSet() *DirectivesSet {
	set := &DirectivesSet{Seq: r.uvarint()}
	if !r.bool() {
		return set
	}
	n := r.count(1 + minDirectives)
	set.ByNode = make(map[string]Directives, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		id := r.str()
		if i > 0 && id <= prev {
			r.fail("directives-set key %q does not follow %q", id, prev)
			break
		}
		set.ByNode[id] = r.directives()
		prev = id
	}
	return set
}
