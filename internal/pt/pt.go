// Package pt implements the software analog of Intel Processor Trace
// used by ER's online monitoring (§3.1, §4). The encoder packs
// control-flow events into compact packets — TNT bit groups for
// conditional branches and compressed returns, TIP packets for
// indirect transfer targets, CHUNK packets carrying coarse timestamps
// at scheduling boundaries (the MTC analog used for cross-thread
// ordering, §3.4), and PTW packets for data values emitted by ptwrite
// instrumentation. Packets stream into a fixed-capacity ring buffer
// (64 MB in the paper) whose backing grows with the bytes written, up
// to that capacity; periodic PSB sync points let the decoder
// resynchronize after the ring wraps, and a wrap that destroys the
// trace prefix is reported as an overflow.
package pt

import (
	"bytes"
	"errors"

	"execrecon/internal/ir"
)

// Packet headers.
const (
	hdrPSB   = 0x82 // sync point
	hdrTNT   = 0x01 // short TNT: count byte + payload bits
	hdrTIP   = 0x02 // target: uvarint
	hdrPTW   = 0x04 // key uvarint, width byte, value uvarint
	hdrChunk = 0x07 // tid uvarint, timestamp uvarint
	hdrPGD   = 0x08 // packet generation disable: pause marker, count uvarint
	hdrEnd   = 0x0f // end of trace
)

// psbInterval is the byte distance between sync points.
const psbInterval = 4096

// DefaultRingSize is the per-application trace buffer size used by
// the paper (64 MB).
const DefaultRingSize = 64 << 20

// Ring is a byte ring buffer of fixed capacity tracking total bytes
// ever written. Its backing grows with what is written, doubling up
// to the capacity, and reaches the full capacity only on the first
// write that wraps: a run that records a few hundred bytes into a
// 64 MB ring costs a few hundred bytes.
type Ring struct {
	buf      []byte // buf[:min(written, capacity)] holds the window
	capacity int
	written  uint64
}

// NewRing returns a ring of the given capacity.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{capacity: capacity}
}

// Write appends bytes, overwriting the oldest data on wrap. A write
// longer than the capacity keeps only its tail; the bytes it drops
// still count as written (and so as lost).
func (r *Ring) Write(p []byte) {
	capacity := uint64(r.capacity)
	if n := uint64(len(p)); n > capacity {
		r.written += n - capacity
		p = p[n-capacity:]
	}
	end := r.written + uint64(len(p))
	if end <= capacity {
		r.reserve(int(end))
		r.buf = append(r.buf[:r.written], p...)
		r.written = end
		return
	}
	r.reserve(r.capacity)
	r.buf = r.buf[:r.capacity]
	head := copy(r.buf[r.written%capacity:], p)
	copy(r.buf, p[head:])
	r.written = end
}

// reserve makes the backing hold at least n bytes, doubling it but
// never past the capacity. The window is kept.
func (r *Ring) reserve(n int) {
	if n <= cap(r.buf) {
		return
	}
	b := make([]byte, len(r.buf), min(max(n, 2*cap(r.buf)), r.capacity))
	copy(b, r.buf)
	r.buf = b
}

// Bytes returns the surviving window in write order and the number of
// bytes lost to wrapping.
//
// The returned slice is always a fresh copy — it never aliases the
// live ring buffer — so callers (archival readers in particular) may
// retain it across subsequent Write/Reset calls. This is a documented
// guarantee, not an accident of the implementation: internal/tracestore
// persists these blobs long after the producing machine has reused its
// ring, and TestRingBytesNoAlias pins the behavior.
func (r *Ring) Bytes() (data []byte, lost uint64) {
	cap64 := uint64(r.capacity)
	if r.written <= cap64 {
		return append([]byte(nil), r.buf[:r.written]...), 0
	}
	lost = r.written - cap64
	start := r.written % cap64
	out := make([]byte, 0, cap64)
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out, lost
}

// Written returns total bytes ever written (the monitoring-cost
// figure used by the overhead model).
func (r *Ring) Written() uint64 { return r.written }

// Reset rewinds the ring for reuse, keeping its backing. The
// production recorder (internal/prod) resets its ring for every traced
// run, so steady traffic does not allocate a fresh trace buffer per
// run.
func (r *Ring) Reset() { r.written = 0 }

// Cap returns the ring's configured capacity in bytes, however much
// of it the backing has grown to.
func (r *Ring) Cap() int { return r.capacity }

// Encoder serializes trace events into a Ring. It implements the
// vm.Tracer shape (the vm package defines the interface; this type
// satisfies it structurally).
type Encoder struct {
	ring *Ring

	tntBits  []bool
	sincePSB uint64

	// Event counts for the efficiency experiments.
	NumTNT, NumTIP, NumPTW, NumChunk uint64
}

// NewEncoder returns an encoder writing into ring.
func NewEncoder(ring *Ring) *Encoder {
	e := &Encoder{ring: ring}
	e.emitPSB()
	return e
}

func (e *Encoder) emit(p []byte) {
	e.ring.Write(p)
	e.sincePSB += uint64(len(p))
}

func (e *Encoder) emitPSB() {
	e.flushTNT()
	e.emit([]byte{hdrPSB})
	e.sincePSB = 0
}

func (e *Encoder) maybePSB() {
	if e.sincePSB >= psbInterval {
		e.emitPSB()
	}
}

func putUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// flushTNT emits pending TNT bits as one packet.
func (e *Encoder) flushTNT() {
	n := len(e.tntBits)
	if n == 0 {
		return
	}
	pkt := []byte{hdrTNT, byte(n)}
	var cur byte
	for i, b := range e.tntBits {
		if b {
			cur |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			pkt = append(pkt, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		pkt = append(pkt, cur)
	}
	e.tntBits = e.tntBits[:0]
	e.emit(pkt)
}

// TNT buffers a taken/not-taken bit.
func (e *Encoder) TNT(taken bool) {
	e.NumTNT++
	e.tntBits = append(e.tntBits, taken)
	if len(e.tntBits) == 255 {
		e.flushTNT()
		e.maybePSB()
	}
}

// TIP records an indirect transfer target.
func (e *Encoder) TIP(target uint64) {
	e.NumTIP++
	e.flushTNT()
	e.emit(putUvarint([]byte{hdrTIP}, target))
	e.maybePSB()
}

// PTW records an instrumented data value. The width is recorded in
// bits so the consumer can size the concretization constraint.
func (e *Encoder) PTW(key int32, w ir.Width, val uint64) {
	widthBits := uint8(w)
	e.NumPTW++
	e.flushTNT()
	pkt := putUvarint([]byte{hdrPTW}, uint64(uint32(key)))
	pkt = append(pkt, widthBits)
	pkt = putUvarint(pkt, val)
	e.emit(pkt)
	e.maybePSB()
}

// PGD records that the running thread was descheduled after
// executing count instructions since its last trace event — the
// analog of Intel PT's packet-generation-disable marker, whose target
// IP pins the exact pause point. The count lets the trace consumer
// locate the preemption even in event-silent instruction stretches.
func (e *Encoder) PGD(count uint64) {
	e.flushTNT()
	e.emit(putUvarint([]byte{hdrPGD}, count))
	e.maybePSB()
}

// Chunk records a scheduling boundary: thread tid resumes at coarse
// timestamp ts.
func (e *Encoder) Chunk(tid int, ts uint64) {
	e.NumChunk++
	e.flushTNT()
	pkt := putUvarint([]byte{hdrChunk}, uint64(tid))
	pkt = putUvarint(pkt, ts)
	e.emit(pkt)
	e.maybePSB()
}

// Finish flushes buffered bits and emits the end marker.
func (e *Encoder) Finish() {
	e.flushTNT()
	e.emit([]byte{hdrEnd})
}

// EventKind classifies decoded events.
type EventKind uint8

// Decoded event kinds.
const (
	EvTNT EventKind = iota
	EvTIP
	EvPTW
	EvChunk
	EvPGD
	EvEnd
)

// Event is a decoded trace event.
type Event struct {
	Kind      EventKind
	Taken     bool   // EvTNT
	Target    uint64 // EvTIP
	Key       int32  // EvPTW
	WidthBits uint8  // EvPTW
	Value     uint64 // EvPTW
	Tid       int    // EvChunk
	Timestamp uint64 // EvChunk
	Count     uint64 // EvPGD: instructions since the thread's last event
}

// Trace is a fully decoded trace.
type Trace struct {
	Events []Event
	// Truncated is true when the ring wrapped and the prefix of the
	// execution was lost; Events then starts at the first surviving
	// sync point.
	Truncated bool
	LostBytes uint64
}

// ErrNoSync is returned when a wrapped trace contains no sync point.
var ErrNoSync = errors.New("pt: wrapped trace contains no PSB sync point")

// maxUvarintBytes bounds a uvarint encoding: 10 groups of 7 bits
// cover 64 bits. Longer encodings are malformed input (the decoder is
// fed attacker-shaped bytes from disk by the trace archive, so it
// must reject rather than silently wrap).
const maxUvarintBytes = 10

// Decode parses the ring contents back into events.
func Decode(r *Ring) (*Trace, error) {
	data, lost := r.Bytes()
	return DecodeBytes(data, lost)
}

// DecodeBytes parses a raw packet stream (as returned by Ring.Bytes)
// back into events by draining a StreamDecoder, the one packet parser.
// lost is the number of prefix bytes destroyed by ring wrapping; when
// nonzero the decoder resynchronizes at the first PSB sync point. A
// stream that ended on an End packet yields a final EvEnd event.
// DecodeBytes never panics: corrupt or truncated input produces an
// error.
func DecodeBytes(data []byte, lost uint64) (*Trace, error) {
	d := NewStreamDecoder(bytes.NewReader(data), lost)
	t := &Trace{Truncated: lost > 0, LostBytes: lost}
	// Drain a packet at a time: a TNT packet carries up to 255 events.
	for d.decodePacket(); d.pi < len(d.pending); d.decodePacket() {
		t.Events = append(t.Events, d.pending[d.pi:]...)
		d.pi = len(d.pending)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.ended {
		t.Events = append(t.Events, Event{Kind: EvEnd})
	}
	return t, nil
}

// EventSource is the event-at-a-time interface the shepherded
// executor consumes: sequential Peek/Next with position accounting.
// Cursor implements it over a fully decoded in-memory Trace;
// StreamDecoder implements it over an incrementally decoded byte
// stream (the trace-archive read path, where internal/tracestore's
// readers feed it a record's bytes straight off the segment).
//
// Remaining may be a lower bound for streaming sources that do not
// know the total event count in advance; the contract consumers rely
// on is only that Remaining() > 0 iff another event is available.
type EventSource interface {
	// Peek returns the next event without consuming it, or nil at
	// end of trace (or on a source error).
	Peek() *Event
	// Next consumes and returns the next event, or nil at end.
	Next() *Event
	// Pos returns the number of events consumed so far.
	Pos() int
	// Remaining reports whether (and for in-memory sources, how
	// many) events remain.
	Remaining() int
}

// Cursor iterates a decoded trace the way the shepherded executor
// consumes it: sequential events with kind expectations.
type Cursor struct {
	tr  *Trace
	pos int
}

// NewCursor returns a cursor at the start of tr.
func NewCursor(tr *Trace) *Cursor { return &Cursor{tr: tr} }

// Peek returns the next event without consuming it, or nil at end.
func (c *Cursor) Peek() *Event {
	for c.pos < len(c.tr.Events) {
		ev := &c.tr.Events[c.pos]
		if ev.Kind == EvEnd {
			return nil
		}
		return ev
	}
	return nil
}

// Next consumes and returns the next event, or nil at end.
func (c *Cursor) Next() *Event {
	ev := c.Peek()
	if ev != nil {
		c.pos++
	}
	return ev
}

// Pos returns the cursor position (events consumed).
func (c *Cursor) Pos() int { return c.pos }

var _ EventSource = (*Cursor)(nil)

// Remaining returns the number of unconsumed events.
func (c *Cursor) Remaining() int {
	n := len(c.tr.Events) - c.pos
	if n > 0 && c.tr.Events[len(c.tr.Events)-1].Kind == EvEnd {
		n--
	}
	if n < 0 {
		return 0
	}
	return n
}
