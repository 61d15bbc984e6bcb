package pt

import (
	"bufio"
	"fmt"
	"io"
)

// StreamDecoder decodes a PT packet stream incrementally from an
// io.Reader, yielding events one packet at a time. It implements
// EventSource, so it plugs directly into the shepherded symbolic
// executor — this is how internal/tracestore feeds archived traces
// into analysis without ever materializing the full event slice (a
// decoded trace is an order of magnitude larger than its packet
// bytes).
//
// It is the only packet parser: DecodeBytes drains one. An End packet
// terminates the stream cleanly; clean EOF at a packet boundary also
// terminates it (a trace without an end marker decodes to its
// events); corrupt or truncated-mid-packet input stops the stream and
// records the error in Err. StreamDecoder never panics on malformed
// input.
//
// Pointer lifetime: the *Event returned by Peek/Next points into a
// per-packet buffer that is reused once the packet is exhausted. It
// stays valid until the first Peek/Next call that crosses into the
// next packet — which matches how the shepherded executor consumes
// events (each event's fields are read before the cursor advances
// again). Consumers that retain events across cursor calls must copy
// them.
type StreamDecoder struct {
	r    *bufio.Reader
	lost uint64

	// pending holds the events of the most recently decoded packet
	// (a TNT packet carries up to 255). pi indexes the next one.
	pending []Event
	pi      int
	// tnt is the TNT payload buffer (255 bits at most), kept here so
	// reading a payload does not allocate.
	tnt [32]byte

	pos    int
	synced bool
	done   bool
	// ended records that the stream stopped on an End packet rather
	// than at EOF or on an error.
	ended bool
	err   error
}

// NewStreamDecoder returns a decoder reading packet bytes from r.
// lost is the byte count destroyed by ring wrapping (0 for a complete
// stream); when nonzero the decoder scans forward to the first PSB
// sync point before emitting events.
func NewStreamDecoder(r io.Reader, lost uint64) *StreamDecoder {
	return &StreamDecoder{
		r:      bufio.NewReaderSize(r, 4096),
		lost:   lost,
		synced: lost == 0,
	}
}

// Truncated reports whether the stream's prefix was lost to ring
// wrapping.
func (d *StreamDecoder) Truncated() bool { return d.lost > 0 }

// Err returns the terminal decode error, if any. It is only
// meaningful once Peek has returned nil.
func (d *StreamDecoder) Err() error { return d.err }

func (d *StreamDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.done = true
}

// failRead records a mid-packet read failure, preserving a real
// source error (archive reconstruction failures) over the generic
// truncation message.
func (d *StreamDecoder) failRead(err error, what string) {
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		d.fail(err)
		return
	}
	d.fail(fmt.Errorf("pt: truncated %s", what))
}

// readUvarint reads a bounded uvarint. Truncation mid-varint is an
// error.
func (d *StreamDecoder) readUvarint() (uint64, bool) {
	var v uint64
	var shift uint
	for n := 0; ; n++ {
		if n == maxUvarintBytes {
			d.fail(fmt.Errorf("pt: uvarint overflow"))
			return 0, false
		}
		b, err := d.r.ReadByte()
		if err != nil {
			d.failRead(err, "uvarint")
			return 0, false
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
		shift += 7
	}
}

// sync scans forward to the first PSB byte (wrapped-stream recovery).
// A PSB byte inside a packet body could alias; the encoder bounds
// packet size far below psbInterval, so scanning forward finds a true
// sync in practice.
func (d *StreamDecoder) sync() {
	for {
		b, err := d.r.ReadByte()
		if err != nil {
			d.fail(ErrNoSync)
			return
		}
		if b == hdrPSB {
			d.synced = true
			return
		}
	}
}

// decodePacket decodes packets until at least one event is pending or
// the stream ends.
func (d *StreamDecoder) decodePacket() {
	for !d.done && d.pi >= len(d.pending) {
		if !d.synced {
			d.sync()
			continue
		}
		h, err := d.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				// Clean EOF at a packet boundary: end of trace (a
				// stream without an End marker is accepted).
				d.done = true
			} else {
				// A real source error (e.g. a failed segment read in
				// the trace archive) must surface, not masquerade as a
				// short trace.
				d.fail(err)
			}
			return
		}
		d.pending = d.pending[:0]
		d.pi = 0
		switch h {
		case hdrPSB:
			// sync point; no payload
		case hdrTNT:
			nb, err := d.r.ReadByte()
			if err != nil {
				d.failRead(err, "TNT header")
				return
			}
			n := int(nb)
			nbytes := (n + 7) / 8
			if _, err := io.ReadFull(d.r, d.tnt[:nbytes]); err != nil {
				d.failRead(err, "TNT payload")
				return
			}
			for k := 0; k < n; k++ {
				bit := d.tnt[k/8]>>(uint(k)%8)&1 == 1
				d.pending = append(d.pending, Event{Kind: EvTNT, Taken: bit})
			}
		case hdrTIP:
			v, ok := d.readUvarint()
			if !ok {
				return
			}
			d.pending = append(d.pending, Event{Kind: EvTIP, Target: v})
		case hdrPTW:
			k, ok := d.readUvarint()
			if !ok {
				return
			}
			wb, err := d.r.ReadByte()
			if err != nil {
				d.failRead(err, "PTW width")
				return
			}
			v, ok := d.readUvarint()
			if !ok {
				return
			}
			d.pending = append(d.pending, Event{Kind: EvPTW, Key: int32(uint32(k)), WidthBits: wb, Value: v})
		case hdrPGD:
			c, ok := d.readUvarint()
			if !ok {
				return
			}
			d.pending = append(d.pending, Event{Kind: EvPGD, Count: c})
		case hdrChunk:
			tid, ok := d.readUvarint()
			if !ok {
				return
			}
			ts, ok := d.readUvarint()
			if !ok {
				return
			}
			d.pending = append(d.pending, Event{Kind: EvChunk, Tid: int(tid), Timestamp: ts})
		case hdrEnd:
			d.done = true
			d.ended = true
		default:
			d.fail(fmt.Errorf("pt: unknown packet header %#x", h))
		}
	}
}

// Peek returns the next event without consuming it, or nil at end of
// trace (check Err to distinguish clean end from decode failure).
func (d *StreamDecoder) Peek() *Event {
	if d.pi >= len(d.pending) {
		d.decodePacket()
	}
	if d.pi < len(d.pending) {
		return &d.pending[d.pi]
	}
	return nil
}

// Next consumes and returns the next event, or nil at end.
func (d *StreamDecoder) Next() *Event {
	ev := d.Peek()
	if ev != nil {
		d.pi++
		d.pos++
	}
	return ev
}

// Pos returns the number of events consumed.
func (d *StreamDecoder) Pos() int { return d.pos }

// Remaining reports 1 while another event is available and 0 at end —
// a lower bound, per the EventSource contract (a streaming decoder
// cannot know the total count without reading ahead).
func (d *StreamDecoder) Remaining() int {
	if d.Peek() != nil {
		return 1
	}
	return 0
}

var _ EventSource = (*StreamDecoder)(nil)
