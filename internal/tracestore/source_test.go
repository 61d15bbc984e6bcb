package tracestore_test

import (
	"bytes"
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// growingGen fails every run, on a trace that grows with the run
// index, so consecutive occurrences leave different bytes in the ring.
type growingGen struct{}

func (growingGen) Run(n int) (*vm.Workload, int64) {
	return vm.NewWorkload().Add("n", uint64(3+40*n)), int64(n)
}

func TestSourceArchiveSurvivesRingReuse(t *testing.T) {
	// Source records every run into one reused ring; the blob archived
	// for an occurrence must read back unchanged after the next
	// occurrence overwrote the ring and was appended behind it.
	mod, err := minc.Compile("t", `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		if ((i & 1) == 0) { acc = acc + i; }
	}
	abort("end of request");
	return acc;
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer store.Close()
	src := &tracestore.Source{Store: store, Gen: growingGen{}, App: "t"}
	req := core.SourceRequest{Deployed: mod, Entry: "main", Traced: true, MaxRuns: 1, RingSize: 1 << 16}

	first, err := src.Next(req)
	if err != nil {
		t.Fatalf("first Next: %v", err)
	}
	key := tracestore.KeyOf(first.Result.Failure)
	w, seed := growingGen{}.Run(0)
	_, ring := new(prod.Recorder).Run(mod, "main", w, seed, true, 1<<16)
	want, _ := ring.Bytes()
	if raw, _, err := store.ReadRaw(key, 0); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("seq 0 before reuse: err %v, equal %v", err, bytes.Equal(raw, want))
	}

	if _, err := src.Next(req); err != nil {
		t.Fatalf("second Next: %v", err)
	}
	if store.Count(key) != 2 {
		t.Fatalf("archived %d records, want 2", store.Count(key))
	}
	raw, _, err := store.ReadRaw(key, 0)
	if err != nil {
		t.Fatalf("read seq 0: %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("seq 0 changed after seq 1 was recorded into the same ring and appended")
	}
	if raw1, _, err := store.ReadRaw(key, 1); err != nil || bytes.Equal(raw1, want) {
		t.Fatalf("seq 1: err %v, identical to seq 0 %v (want a longer trace)", err, bytes.Equal(raw1, want))
	}
}
