package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Delta encoding of a reoccurrence's raw PT packet stream against the
// bucket's reference stream (the first archived occurrence). ER's
// premise — the same failure reoccurs with nearly identical control
// flow — makes reoccurrence streams nearly (often exactly) identical
// byte sequences, so an rsync-style copy/literal delta collapses each
// subsequent occurrence to a handful of bytes.
//
// Op stream format (the body of a KindDelta record):
//
//	opCopy    off uvarint, len uvarint   — ref[off : off+len]
//	opLiteral plen uvarint, plen packed  — RLE-packed literal bytes
//
// terminated by the end of the framed body. Literal runs go through
// the same RLE packer as reference bodies (TNT-run compression), so
// even a delta that degenerates to one big literal is no worse than a
// reference record.
//
// Matching uses a Rabin-Karp rolling hash over fixed-size blocks: the
// reference is indexed at non-overlapping block boundaries, the
// target is scanned at every offset, and hash hits are verified
// byte-for-byte then extended forward (and backward into the pending
// literal) as far as the streams agree.

const (
	opCopy    byte = 1
	opLiteral byte = 2
)

// blockSize is the delta matching granularity. Small enough to find
// matches across PTW-packet insertions after a re-instrumentation
// rollout, large enough to keep the index sparse.
const blockSize = 32

const (
	rkBase = 0x100000001b3 // FNV prime as polynomial base
)

// rkPow returns base^(n-1) for rolling the leading byte out.
func rkPow(n int) uint64 {
	p := uint64(1)
	for i := 1; i < n; i++ {
		p *= rkBase
	}
	return p
}

func rkHash(b []byte) uint64 {
	var h uint64
	for _, c := range b {
		h = h*rkBase + uint64(c)
	}
	return h
}

// maxHashChain bounds the per-hash candidate list so pathological
// references (one repeated block) cannot make encoding quadratic.
const maxHashChain = 4

// deltaEncode appends the delta op stream for target against ref to
// dst.
func deltaEncode(dst, ref, target []byte) []byte {
	emitLiteral := func(lit []byte) {
		if len(lit) == 0 {
			return
		}
		packed := packRLE(nil, lit)
		dst = append(dst, opLiteral)
		dst = putUvarint(dst, uint64(len(packed)))
		dst = append(dst, packed...)
	}
	emitCopy := func(off, n int) {
		dst = append(dst, opCopy)
		dst = putUvarint(dst, uint64(off))
		dst = putUvarint(dst, uint64(n))
	}
	if len(ref) < blockSize || len(target) < blockSize {
		emitLiteral(target)
		return dst
	}

	// Index the reference at non-overlapping block boundaries.
	index := make(map[uint64][]int32, len(ref)/blockSize+1)
	for o := 0; o+blockSize <= len(ref); o += blockSize {
		h := rkHash(ref[o : o+blockSize])
		if cand := index[h]; len(cand) < maxHashChain {
			index[h] = append(cand, int32(o))
		}
	}

	pow := rkPow(blockSize)
	litStart := 0 // start of the pending literal run in target
	p := 0
	h := rkHash(target[:blockSize])
	for p+blockSize <= len(target) {
		matched := false
		for _, c := range index[h] {
			o := int(c)
			if !bytesEqual(ref[o:o+blockSize], target[p:p+blockSize]) {
				continue
			}
			// Extend backward into the pending literal.
			for o > 0 && p > litStart && ref[o-1] == target[p-1] {
				o--
				p--
			}
			// Extend forward past the block.
			n := blockSize + (int(c) - o)
			for o+n < len(ref) && p+n < len(target) && ref[o+n] == target[p+n] {
				n++
			}
			emitLiteral(target[litStart:p])
			emitCopy(o, n)
			p += n
			litStart = p
			if p+blockSize <= len(target) {
				h = rkHash(target[p : p+blockSize])
			}
			matched = true
			break
		}
		if matched {
			continue
		}
		// Roll the window one byte forward.
		if p+blockSize < len(target) {
			h = (h-uint64(target[p])*pow)*rkBase + uint64(target[p+blockSize])
		}
		p++
	}
	emitLiteral(target[litStart:])
	return dst
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deltaApply materializes a delta op stream against ref (tests, CLI;
// the store's read path streams through deltaReader instead).
func deltaApply(ref, ops []byte) ([]byte, error) {
	var out []byte
	r := newDeltaReader(bufio.NewReader(newBytesReader(ops)), ref)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// deltaReader streams the reconstructed raw byte stream of a delta
// record: ops are read lazily from the segment, copy ranges are
// served from the in-memory reference stream, and literal runs are
// RLE-unpacked on the fly. Nothing but the (shared, per-bucket)
// reference is held in memory.
type deltaReader struct {
	ops *bufio.Reader
	ref []byte
	cur io.Reader // active op's byte source (nil = fetch next op)
	err error
}

func newDeltaReader(ops *bufio.Reader, ref []byte) *deltaReader {
	return &deltaReader{ops: ops, ref: ref}
}

func (d *deltaReader) nextOp() error {
	op, err := d.ops.ReadByte()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return err
	}
	switch op {
	case opCopy:
		off, err := binary.ReadUvarint(d.ops)
		if err != nil {
			return fmt.Errorf("tracestore: truncated copy offset")
		}
		n, err := binary.ReadUvarint(d.ops)
		if err != nil {
			return fmt.Errorf("tracestore: truncated copy length")
		}
		if off > uint64(len(d.ref)) || n > uint64(len(d.ref))-off {
			return fmt.Errorf("tracestore: delta copy [%d,+%d) out of reference range %d", off, n, len(d.ref))
		}
		d.cur = newBytesReader(d.ref[off : off+n])
	case opLiteral:
		plen, err := binary.ReadUvarint(d.ops)
		if err != nil {
			return fmt.Errorf("tracestore: truncated literal length")
		}
		d.cur = newRLEReader(bufio.NewReader(io.LimitReader(d.ops, int64(plen))))
	default:
		return fmt.Errorf("tracestore: unknown delta op %#x", op)
	}
	return nil
}

func (d *deltaReader) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	for {
		if d.cur == nil {
			if err := d.nextOp(); err != nil {
				d.err = err
				return 0, err
			}
		}
		n, err := d.cur.Read(p)
		if err == io.EOF {
			d.cur = nil
			if n > 0 {
				return n, nil
			}
			continue
		}
		if err != nil {
			d.err = err
		}
		return n, err
	}
}
