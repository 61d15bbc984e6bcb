package core_test

import (
	"reflect"
	"strings"
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/prod"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

func TestGenSourceFiltersBySignature(t *testing.T) {
	// The mixed generator interleaves benign runs, a different bug,
	// and the target bug; Next must skip everything that does not
	// match the requested signature.
	mod := compile(t, `
func main() int {
	int x = input32("x");
	if (x == 1) { abort("other bug"); }
	assert(x != 42, "target bug");
	return 0;
}`)
	src := &core.GenSource{Gen: &mixedGen{}}

	// First: grab the target signature with an unfiltered request.
	occ, err := src.Next(core.SourceRequest{
		Deployed: mod, Entry: "main", Traced: true, MaxRuns: 10, RingSize: 1 << 20,
	})
	if err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if occ.Result.Failure == nil || occ.Result.Failure.Kind != vm.FailAssert {
		t.Fatalf("first occurrence = %+v, want the assert bug", occ.Result.Failure)
	}
	sig := occ.Result.Failure

	// Then: filtered requests must only deliver matching failures,
	// even though the generator also produces the abort bug.
	for i := 0; i < 3; i++ {
		occ, err := src.Next(core.SourceRequest{
			Deployed: mod, Entry: "main", Traced: true,
			Signature: sig, MaxRuns: 20, RingSize: 1 << 20,
		})
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !occ.Result.Failure.SameSignature(sig) {
			t.Fatalf("Next %d delivered wrong signature %v", i, occ.Result.Failure)
		}
		if occ.Trace == nil {
			t.Fatalf("Next %d: traced request returned nil trace", i)
		}
	}
}

func TestGenSourceUntracedRequest(t *testing.T) {
	mod := compile(t, `
func main() int {
	int x = input32("x");
	assert(x != 42, "the answer");
	return 0;
}`)
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 42), Seed: 7}}
	occ, err := src.Next(core.SourceRequest{Deployed: mod, Entry: "main", Traced: false, MaxRuns: 5})
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if occ.Trace != nil {
		t.Error("untraced request returned a trace")
	}
	if occ.Result.Failure == nil {
		t.Error("occurrence has no failure")
	}
	if occ.Seed != 7 {
		t.Errorf("seed = %d, want the generator's 7", occ.Seed)
	}
}

func TestGenSourceExhaustsMaxRuns(t *testing.T) {
	mod := compile(t, `func main() int { return input32("x"); }`)
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 1, 1, 1, 1, 1, 1), Seed: 1}}
	_, err := src.Next(core.SourceRequest{Deployed: mod, Entry: "main", Traced: true, MaxRuns: 3, RingSize: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "did not reoccur") {
		t.Fatalf("err = %v, want reoccurrence exhaustion", err)
	}
}

func TestReproduceViaExplicitSource(t *testing.T) {
	// An explicit Config.Source wrapping the workload generator must
	// behave exactly like the Gen path.
	mod := compile(t, chainSrc)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Source: &core.GenSource{Gen: &core.FixedWorkload{Workload: chainWorkload(), Seed: 1}},
		Symex:  symex.Options{QueryBudget: 30_000},
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: reproduced=%v verified=%v reason=%s",
			rep.Reproduced, rep.Verified, rep.FailReason)
	}
	if rep.Occurrences < 2 {
		t.Errorf("occurrences = %d, want >= 2 (first attempt must stall)", rep.Occurrences)
	}
}

func TestReproduceNeedsGenOrSource(t *testing.T) {
	mod := compile(t, `func main() int { return 0; }`)
	_, err := core.Reproduce(core.Config{Module: mod})
	if err == nil {
		t.Fatal("expected error with neither Gen nor Source")
	}
}

func TestPipelineManualDrive(t *testing.T) {
	// Drive a Pipeline by hand, checking the deployment version and
	// request shape evolve the way the fleet scheduler relies on.
	mod := compile(t, chainSrc)
	cfg := core.Config{
		Module: mod,
		Symex:  symex.Options{QueryBudget: 30_000},
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if p.Version() != 0 {
		t.Fatalf("initial version = %d, want 0", p.Version())
	}
	if !p.NeedsTrace() {
		t.Fatal("NeedsTrace should be true without deferred tracing")
	}
	if p.Signature() != nil {
		t.Fatal("signature pinned before any occurrence")
	}
	if req := p.Request(); req.Deployed != mod || req.Entry != "main" || !req.Traced {
		t.Fatalf("unexpected initial request: %+v", req)
	}

	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: chainWorkload(), Seed: 1}}
	versions := []int{p.Version()}
	for i := 0; i < 20 && !p.Done(); i++ {
		occ, err := src.Next(p.Request())
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if _, err := p.Feed(occ); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		if v := p.Version(); v != versions[len(versions)-1] {
			versions = append(versions, v)
			// A version bump must swap in a different deployed module.
			if p.Deployed() == mod {
				t.Error("version bumped but Deployed() is still the pristine module")
			}
		}
	}
	if !p.Done() {
		t.Fatal("pipeline did not finish within 20 occurrences")
	}
	if err := p.Err(); err != nil {
		t.Fatalf("terminal error: %v", err)
	}
	rep := p.Report()
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	if len(versions) < 2 {
		t.Errorf("versions = %v, want at least one re-instrumentation bump", versions)
	}
	if p.Signature() == nil || rep.Failure == nil {
		t.Error("signature not pinned after completion")
	}

	// Feeding a finished pipeline is a no-op that stays done.
	done, err := p.Feed(nil)
	if !done || err != nil {
		t.Errorf("Feed after done = (%v, %v), want (true, nil)", done, err)
	}
}

func TestPipelineIgnoresForeignAndBenign(t *testing.T) {
	mod := compile(t, `
func main() int {
	int x = input32("x");
	if (x == 1) { abort("other bug"); }
	assert(x != 42, "target bug");
	return 0;
}`)
	p, err := core.NewPipeline(core.Config{Module: mod})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}

	// Benign occurrence: ignored entirely.
	if done, err := p.Feed(&core.Occurrence{Result: &vm.Result{}}); done || err != nil {
		t.Fatalf("benign Feed = (%v, %v)", done, err)
	}
	if p.Report().Occurrences != 0 {
		t.Error("benign run counted as an occurrence")
	}

	// Pin the target signature via a real traced occurrence.
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 42), Seed: 1}}
	occ, err := src.Next(p.Request())
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	target := occ.Result.Failure

	// A different bug's occurrence must be ignored once pinned. Pin
	// first on a fresh pipeline, then feed the foreign failure.
	p2, _ := core.NewPipeline(core.Config{Module: mod, MaxIterations: 8, Symex: symex.Options{QueryBudget: 1}})
	if _, err := p2.Feed(occ); err != nil {
		t.Fatalf("pin Feed: %v", err)
	}
	if p2.Done() {
		t.Skip("tiny budget still completed; signature-filter path not reachable")
	}
	foreignSrc := &core.GenSource{Gen: &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 1), Seed: 1}}
	foreign, err := foreignSrc.Next(core.SourceRequest{Deployed: mod, Entry: "main", Traced: true, MaxRuns: 3, RingSize: 1 << 20})
	if err != nil {
		t.Fatalf("foreign Next: %v", err)
	}
	if foreign.Result.Failure.SameSignature(target) {
		t.Fatal("test bug: foreign failure matches target signature")
	}
	before := p2.Report().Occurrences
	if done, err := p2.Feed(foreign); done || err != nil {
		t.Fatalf("foreign Feed = (%v, %v)", done, err)
	}
	if p2.Report().Occurrences != before {
		t.Error("foreign failure counted as an occurrence")
	}
}

// growingGen fails every run, on a trace that grows with the run
// index, so consecutive occurrences leave different bytes in the ring.
type growingGen struct{}

func (growingGen) Run(n int) (*vm.Workload, int64) {
	return vm.NewWorkload().Add("n", uint64(3+40*n)), int64(n)
}

const growingSrc = `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		if ((i & 1) == 0) { acc = acc + i; }
	}
	abort("end of request");
	return acc;
}`

func TestGenSourceRingReuseKeepsDeliveredTrace(t *testing.T) {
	// GenSource records every run into one reused ring; an occurrence
	// already delivered must not change when the next run overwrites it.
	mod := compile(t, growingSrc)
	src := &core.GenSource{Gen: growingGen{}}
	req := core.SourceRequest{Deployed: mod, Entry: "main", Traced: true, MaxRuns: 1, RingSize: 1 << 16}
	first, err := src.Next(req)
	if err != nil {
		t.Fatalf("first Next: %v", err)
	}
	second, err := src.Next(req)
	if err != nil {
		t.Fatalf("second Next: %v", err)
	}
	w, seed := growingGen{}.Run(0)
	fresh, _, err := new(prod.Recorder).Record(mod, w, seed)
	if err != nil {
		t.Fatalf("fresh recording: %v", err)
	}
	if !reflect.DeepEqual(first.Trace.Events, fresh.Events) {
		t.Fatal("occurrence 1 changed after occurrence 2 was recorded into the same ring")
	}
	if len(second.Trace.Events) <= len(first.Trace.Events) {
		t.Fatalf("occurrence 2 has %d events, want more than occurrence 1's %d",
			len(second.Trace.Events), len(first.Trace.Events))
	}
}
