package tracestore_test

import (
	"bytes"
	"testing"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
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

// TestSourceTable1Parity runs the archive on each Table 1 app. It
// archives 8 ring windows of the app's failure, each 4 benign requests
// and then the failing one traced into the same ring, as a production
// ring holds them at failure time, and each must read back as shipped.
// It then reproduces the failure in memory and with every trace read
// back through Source: the round trip through the archive is the only
// difference, so the two verdicts must agree.
func TestSourceTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 26 full ER reproductions")
	}
	const windows, benign = 8, 4
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			t.Fatal(err)
		}
		store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ring := pt.NewRing(pt.DefaultRingSize)
		for i := 0; i < windows; i++ {
			ring.Reset()
			enc := pt.NewEncoder(ring)
			for j := 0; j < benign; j++ {
				vm.New(mod, vm.Config{Input: a.Benign(j), Seed: a.Seed, Tracer: enc}).Run("main")
			}
			res := vm.New(mod, vm.Config{Input: a.Failing(), Seed: a.Seed, Tracer: enc}).Run("main")
			if res.Failure == nil {
				t.Fatalf("%s: failing workload did not fail (window %d)", a.Name, i)
			}
			enc.Finish()
			meta := tracestore.Meta{App: a.Name, Machine: i, Seed: a.Seed, Instrs: res.Stats.Instrs}
			seq, err := store.AppendRing(res.Failure, meta, ring)
			if err != nil {
				t.Fatalf("%s: append: %v", a.Name, err)
			}
			want, _ := ring.Bytes()
			if raw, _, err := store.ReadRaw(tracestore.KeyOf(res.Failure), seq); err != nil || !bytes.Equal(raw, want) {
				t.Fatalf("%s: window %d reads back: err %v, equal %v", a.Name, i, err, bytes.Equal(raw, want))
			}
		}
		store.Close()

		cfg := core.Config{Module: mod, Symex: a.SymexOptions()}
		memCfg := cfg
		memCfg.Gen = &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed}
		memRep, memErr := core.Reproduce(memCfg)

		parity, err := tracestore.Open(t.TempDir(), tracestore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		storeCfg := cfg
		storeCfg.Source = &tracestore.Source{
			Store: parity,
			Gen:   &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed},
			App:   a.Name,
		}
		storeRep, storeErr := core.Reproduce(storeCfg)
		parity.Close()

		if (memErr == nil) != (storeErr == nil) {
			t.Errorf("%s: error outcome differs: memory %v, store %v", a.Name, memErr, storeErr)
			continue
		}
		if memErr != nil {
			continue
		}
		if memRep.Reproduced != storeRep.Reproduced || memRep.Verified != storeRep.Verified {
			t.Errorf("%s: verdict differs: memory reproduced=%v verified=%v, store reproduced=%v verified=%v",
				a.Name, memRep.Reproduced, memRep.Verified, storeRep.Reproduced, storeRep.Verified)
		}
	}
}
