package prod_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

func TestRecorderReusesRingUntilCapacityChanges(t *testing.T) {
	mod := compileMachine(t, perfProg)
	var rec prod.Recorder
	w0, s0 := workload(0)
	_, ring := rec.Run(mod, "main", w0, s0, true, 4<<10)
	if ring == nil || ring.Cap() != 4<<10 {
		t.Fatalf("first traced run: ring %v", ring)
	}
	written := ring.Written()

	// An untraced run neither returns nor drops the ring.
	w1, s1 := workload(1)
	if _, r := rec.Run(mod, "main", w1, s1, false, 4<<10); r != nil {
		t.Fatal("untraced run returned a ring")
	}
	w2, s2 := workload(2)
	if _, again := rec.Run(mod, "main", w2, s2, true, 4<<10); again != ring {
		t.Fatal("same capacity: ring was reallocated, want it reset and reused")
	} else if again.Written() != written {
		t.Fatalf("reused ring holds %d bytes, want one run's %d (reset per run)", again.Written(), written)
	}

	w3, s3 := workload(3)
	_, grown := rec.Run(mod, "main", w3, s3, true, 1<<20)
	if grown == ring || grown.Cap() != 1<<20 {
		t.Fatalf("capacity change: ring reused=%v cap=%d, want a fresh 1 MB ring", grown == ring, grown.Cap())
	}

	// A shipped ring belongs to the caller: the next run records into
	// a fresh ring and leaves the shipped one untouched.
	shipped := rec.Ship()
	if shipped != grown {
		t.Fatal("Ship did not hand over the last run's ring")
	}
	snap, _ := shipped.Bytes()
	w4, s4 := workload(4)
	if _, next := rec.Run(mod, "main", w4, s4, true, 1<<20); next == shipped {
		t.Fatal("traced run after Ship reused the shipped ring")
	}
	if after, _ := shipped.Bytes(); !bytes.Equal(after, snap) {
		t.Fatal("shipped ring was overwritten by a later run")
	}
}

// TestRecorderTracedRunAllocatesWhatItRecords pins the cost of a
// traced run to what it records: a small app on a default-capacity
// (64 MB) ring must allocate well under 1 MB in total, so a
// capacity-sized make per ring cannot come back unnoticed.
func TestRecorderTracedRunAllocatesWhatItRecords(t *testing.T) {
	mod := compileMachine(t, perfProg)
	w, seed := workload(0)
	var rec prod.Recorder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ring := rec.Run(mod, "main", w, seed, true, pt.DefaultRingSize)
	runtime.ReadMemStats(&after)
	if ring.Cap() != pt.DefaultRingSize || ring.Written() == 0 {
		t.Fatalf("ring cap %d, %d bytes written", ring.Cap(), ring.Written())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("traced run of %d trace bytes allocated %d bytes, want < 1 MB", ring.Written(), alloc)
	}
}

func TestMachineShippedRingsAreDistinct(t *testing.T) {
	// Odd requests fail, each on a trace of its own length; benign
	// runs in between reuse the machine's ring.
	mod := compileMachine(t, `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		if ((i & 1) == 0) { acc = acc + i; }
	}
	assert(n % 2 == 0, "odd request");
	return acc;
}`)
	gen := func(i int) (*vm.Workload, int64) { return vm.NewWorkload().Add("n", uint64(i)), int64(i) }
	sink := &recordSink{accept: true}
	m := &prod.Machine{App: "demo", Gen: gen, Sink: sink, Trace: true}
	m.Deploy(prod.Deployment{Module: mod})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); m.Serve(ctx) }()
	waitFor(t, func() bool { return m.Stats().Shipped >= 4 })
	cancel()
	<-done

	seen := map[*pt.Ring]int{}
	for i, msg := range sink.all() {
		if j, dup := seen[msg.Ring]; dup {
			t.Fatalf("messages %d and %d share one ring", j, i)
		}
		seen[msg.Ring] = i
		got, err := pt.Decode(msg.Ring)
		if err != nil {
			t.Fatalf("msg %d decode: %v", i, err)
		}
		w, seed := gen(int(msg.Seed))
		want, _, err := new(prod.Recorder).Record(mod, w, seed)
		if err != nil {
			t.Fatalf("fresh recording of run %d: %v", msg.Seed, err)
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("msg %d: shipped ring no longer holds run %d's trace", i, msg.Seed)
		}
	}
}
