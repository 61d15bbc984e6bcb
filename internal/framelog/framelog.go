// Package framelog is the frame shared by the repository's append-only
// files, the trace archive's segments and the cluster's lease log:
//
//	+-------+------------+------------+---------------+
//	| magic | payloadLen | crc32(pay) |  payload ...  |
//	|  4 B  |  4 B (LE)  |  4 B (LE)  |  payloadLen B |
//	+-------+------------+------------+---------------+
//
// A crash tears at most a file's tail. Scan returns the intact prefix,
// and the owner truncates the file there: every fully framed record
// before the tear survives, and nothing before it is rewritten.
package framelog

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// HeaderSize is the frame's byte overhead per record.
const HeaderSize = 12

// Format names one file kind's frames: the magic that opens each frame
// and the largest payload a frame header may claim. A larger claim is
// corruption, not a record.
type Format struct {
	Magic      [4]byte
	MaxPayload int64
}

// Frame returns payload wrapped in a frame header.
func (f Format) Frame(payload []byte) []byte {
	frame := make([]byte, HeaderSize+len(payload))
	copy(frame[:4], f.Magic[:])
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	copy(frame[HeaderSize:], payload)
	return frame
}

// Scan walks the frames of r, which holds size bytes, from offset 0 and
// hands each intact payload to accept with its offset in r. The payload
// slice is reused by the next frame, so accept must copy what it keeps.
// Scan stops at the first wrong magic, impossible length, short read,
// CRC mismatch or payload that accept rejects, and returns the end of
// the last accepted frame: the good prefix. A return below size means
// the tail past it is torn or corrupt.
func (f Format) Scan(r io.ReaderAt, size int64, accept func(off int64, payload []byte) bool) int64 {
	var off int64
	var hdr [HeaderSize]byte
	var buf []byte
	for off+HeaderSize <= size {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			break
		}
		if [4]byte(hdr[:4]) != f.Magic {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if plen > f.MaxPayload || off+HeaderSize+plen > size {
			break
		}
		if int64(cap(buf)) < plen {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := r.ReadAt(payload, off+HeaderSize); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break
		}
		if !accept(off+HeaderSize, payload) {
			break
		}
		off += HeaderSize + plen
	}
	return off
}
