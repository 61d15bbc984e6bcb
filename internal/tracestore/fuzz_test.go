package tracestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"execrecon/internal/framelog"
)

// FuzzStoreOpen writes arbitrary bytes as the archive's only segment.
// With fixCRC set, the harness first rewrites the CRC of every frame
// whose magic and length are intact, so mutated payloads reach the
// record parser instead of stopping at the checksum. Seeds are real
// segments. It checks that:
//   - Open never panics, and fails only on a segment of the older
//     format, which it leaves unchanged;
//   - every surviving record reads back through ReadRaw and drains
//     through OpenEvents;
//   - a second Open truncates nothing and keeps the same records.
func FuzzStoreOpen(f *testing.F) {
	for _, keys := range []int{1, 2, 3} {
		dir := f.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			sig := testSig("fuzz", int32(i%keys))
			if _, err := s.Append(sig, Meta{App: "a", Machine: i, Seed: int64(i), Lost: uint64(i % 2)}, makeRaw(int64(keys), 40*i, nil)); err != nil {
				f.Fatal(err)
			}
		}
		s.Close()
		seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg, false)
		f.Add(seg, true)
	}
	if old, err := os.ReadFile(filepath.Join("testdata", "ers1.log")); err == nil {
		f.Add(old, false)
	}

	dir := f.TempDir()
	path := filepath.Join(dir, segName(0))
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		data = bytes.Clone(data)
		if fixCRC {
			fixFrameCRCs(data)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			if !bytes.HasPrefix(data, oldSegMagic[:]) {
				t.Fatalf("Open: %v", err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused segment changed (read err %v)", rerr)
			}
			return
		}
		first := s.Stats()
		all := func(RecordInfo) bool { return true }
		for _, key := range s.Keys() {
			for from := uint64(0); ; {
				info, next, ok := s.Next(key, from, all)
				if !ok {
					break
				}
				from = next
				raw, _, err := s.ReadRaw(key, info.Seq)
				if err != nil || uint64(len(raw)) != info.RawLen {
					t.Fatalf("ReadRaw(%#x, %d): %d bytes, err %v; want %d", key, info.Seq, len(raw), err, info.RawLen)
				}
				r, err := s.OpenEvents(key, info.Seq)
				if err != nil {
					t.Fatalf("OpenEvents(%#x, %d): %v", key, info.Seq, err)
				}
				for r.Next() != nil {
				}
			}
		}
		s.Close()

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		second := s.Stats()
		s.Close()
		if second.Recoveries != 0 || second.Records != first.Records ||
			second.RawBytes != first.RawBytes || second.StoredBytes != first.StoredBytes {
			t.Fatalf("second Open: %+v, first %+v", second, first)
		}
	})
}

// fixFrameCRCs rewrites, in place, the CRC of every leading frame of
// seg whose magic and length are intact.
func fixFrameCRCs(seg []byte) {
	for off := 0; off+framelog.HeaderSize <= len(seg); {
		if [4]byte(seg[off:off+4]) != segFormat.Magic {
			return
		}
		end := off + framelog.HeaderSize + int(binary.LittleEndian.Uint32(seg[off+4:off+8]))
		if end > len(seg) || end < off {
			return
		}
		binary.LittleEndian.PutUint32(seg[off+8:off+12], crc32.ChecksumIEEE(seg[off+framelog.HeaderSize:end]))
		off = end
	}
}
