package pt

import (
	"math/rand"
	"testing"

	"execrecon/internal/ir"
)

func TestPacketRoundTrip(t *testing.T) {
	ring := NewRing(1 << 16)
	enc := NewEncoder(ring)
	enc.Chunk(0, 1)
	enc.TNT(true)
	enc.TNT(false)
	enc.TNT(true)
	enc.TIP(42)
	enc.PTW(7, ir.W32, 0xdeadbeef)
	enc.PGD(13)
	enc.Chunk(1, 2)
	enc.TNT(false)
	enc.Finish()

	tr, err := Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: EvChunk, Tid: 0, Timestamp: 1},
		{Kind: EvTNT, Taken: true},
		{Kind: EvTNT, Taken: false},
		{Kind: EvTNT, Taken: true},
		{Kind: EvTIP, Target: 42},
		{Kind: EvPTW, Key: 7, WidthBits: 32, Value: 0xdeadbeef},
		{Kind: EvPGD, Count: 13},
		{Kind: EvChunk, Tid: 1, Timestamp: 2},
		{Kind: EvTNT, Taken: false},
		{Kind: EvEnd},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(tr.Events), len(want), tr.Events)
	}
	for i, ev := range tr.Events {
		if ev != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, ev, want[i])
		}
	}
}

func TestRandomizedTNTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		ring := NewRing(1 << 20)
		enc := NewEncoder(ring)
		n := rng.Intn(3000) + 1
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
			enc.TNT(bits[i])
		}
		enc.Finish()
		tr, err := Decode(ring)
		if err != nil {
			t.Fatal(err)
		}
		var got []bool
		for _, ev := range tr.Events {
			if ev.Kind == EvTNT {
				got = append(got, ev.Taken)
			}
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d bits, want %d", trial, len(got), n)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("trial %d: bit %d differs", trial, i)
			}
		}
	}
}

func TestLargeVarints(t *testing.T) {
	ring := NewRing(1 << 16)
	enc := NewEncoder(ring)
	enc.TIP(1<<63 + 12345)
	enc.PTW(2147480000, ir.W64, ^uint64(0))
	enc.Chunk(1000000, 1<<40)
	enc.Finish()
	tr, err := Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Target != 1<<63+12345 {
		t.Errorf("TIP target: %#x", tr.Events[0].Target)
	}
	if tr.Events[1].Value != ^uint64(0) || tr.Events[1].Key != 2147480000 {
		t.Errorf("PTW: %+v", tr.Events[1])
	}
	if tr.Events[2].Tid != 1000000 || tr.Events[2].Timestamp != 1<<40 {
		t.Errorf("Chunk: %+v", tr.Events[2])
	}
}

func TestRingWrapResync(t *testing.T) {
	ring := NewRing(6000)
	enc := NewEncoder(ring)
	for i := 0; i < 300000; i++ {
		enc.TNT(i%3 == 0)
	}
	enc.Finish()
	tr, err := Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated || tr.LostBytes == 0 {
		t.Fatalf("truncation not reported: %+v", tr)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no surviving events")
	}
	// The surviving suffix must end with the end marker.
	if tr.Events[len(tr.Events)-1].Kind != EvEnd {
		t.Error("missing end marker after resync")
	}
}

func TestCursor(t *testing.T) {
	ring := NewRing(1 << 12)
	enc := NewEncoder(ring)
	enc.TNT(true)
	enc.TIP(9)
	enc.Finish()
	tr, err := Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCursor(tr)
	if c.Remaining() != 2 {
		t.Errorf("remaining: %d", c.Remaining())
	}
	if ev := c.Peek(); ev == nil || ev.Kind != EvTNT {
		t.Errorf("peek: %+v", ev)
	}
	if ev := c.Next(); ev == nil || ev.Kind != EvTNT {
		t.Errorf("next: %+v", ev)
	}
	if ev := c.Next(); ev == nil || ev.Kind != EvTIP {
		t.Errorf("next: %+v", ev)
	}
	if c.Next() != nil {
		t.Error("cursor past end")
	}
	if c.Remaining() != 0 {
		t.Errorf("remaining at end: %d", c.Remaining())
	}
}

func TestWrittenCount(t *testing.T) {
	ring := NewRing(64)
	enc := NewEncoder(ring)
	before := ring.Written()
	enc.TIP(5)
	if ring.Written() <= before {
		t.Error("written bytes not counted")
	}
	// Wrapping does not reset the total.
	for i := 0; i < 100; i++ {
		enc.TIP(uint64(i))
	}
	if ring.Written() < 200 {
		t.Errorf("written: %d", ring.Written())
	}
}

// TestRingWriteMatchesPerByte checks the bulk Write against a per-byte
// reference: whatever the chunk sizes (empty, one byte, around the
// capacity, longer than it, crossing the wrap point), the surviving
// window is the tail of everything written since the last Reset, and
// the rest counts as lost. The 64 KB case writes chunks of at most 64
// bytes, so hundreds of writes grow the backing before the first wrap
// extends it to the capacity; it resets once right after that wrap
// and wraps again on the kept backing.
func TestRingWriteMatchesPerByte(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ capacity, steps, maxChunk int }{
		{1, 400, 0}, {2, 400, 0}, {7, 400, 0}, {64, 400, 0}, {4096, 400, 0},
		{1 << 16, 5000, 64},
	} {
		capacity := tc.capacity
		ring := NewRing(capacity)
		if ring.Cap() != capacity {
			t.Fatalf("cap %d: Cap() = %d before any write", capacity, ring.Cap())
		}
		var history []byte // per-byte reference: every byte in write order
		wrapped, resetAfterWrap := false, false
		for step := 0; step < tc.steps; step++ {
			var n int
			switch {
			case tc.maxChunk > 0:
				n = rng.Intn(tc.maxChunk + 1)
			case step%6 == 0:
				n = 0
			case step%6 == 1:
				n = 1
			case step%6 == 2:
				n = capacity - 1
			case step%6 == 3:
				n = capacity
			case step%6 == 4:
				n = capacity + 1
			default:
				n = rng.Intn(3*capacity + 2)
			}
			if (tc.maxChunk == 0 && rng.Intn(50) == 0) || (wrapped && !resetAfterWrap) {
				ring.Reset()
				history = history[:0]
				resetAfterWrap = wrapped
			}
			chunk := make([]byte, n)
			rng.Read(chunk)
			ring.Write(chunk)
			for _, b := range chunk {
				history = append(history, b)
			}

			wantLost := uint64(0)
			window := history
			if len(history) > capacity {
				wantLost = uint64(len(history) - capacity)
				window = history[len(history)-capacity:]
				wrapped = true
			}
			got, lost := ring.Bytes()
			if lost != wantLost || ring.Written() != uint64(len(history)) {
				t.Fatalf("cap %d step %d (chunk %d): lost %d written %d, want %d and %d",
					capacity, step, n, lost, ring.Written(), wantLost, len(history))
			}
			if string(got) != string(window) {
				t.Fatalf("cap %d step %d (chunk %d): window differs from the per-byte reference",
					capacity, step, n)
			}
			if ring.Cap() != capacity || cap(ring.buf) > capacity {
				t.Fatalf("cap %d step %d: Cap() %d, backing %d", capacity, step, ring.Cap(), cap(ring.buf))
			}
			if !wrapped && 4*len(history) <= capacity && cap(ring.buf) >= capacity {
				t.Fatalf("cap %d step %d: backing reached the capacity after %d bytes, before any wrap",
					capacity, step, len(history))
			}
		}
		if tc.maxChunk > 0 && (!resetAfterWrap || ring.Written() <= uint64(capacity)) {
			t.Fatalf("cap %d: want a wrap, a reset, and a second wrap (reset %v, written %d)",
				capacity, resetAfterWrap, ring.Written())
		}
	}
}
