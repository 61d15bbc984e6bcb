package bench_test

import (
	"testing"

	"execrecon/internal/apps"
	"execrecon/internal/bench"
	"execrecon/internal/core"
	"execrecon/internal/keyselect"
)

// TestChainFoldsToDeployed pins that folding a session's chain onto the
// base module rebuilds exactly the module the pipeline deployed last:
// the coordinator's rollout rebuild and Fig 6 both rely on it.
func TestChainFoldsToDeployed(t *testing.T) {
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		cfg := bench.ReproConfig(a, mod)
		p, err := core.NewPipeline(cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		src := &core.GenSource{Gen: cfg.Gen}
		for !p.Done() {
			occ, err := src.Next(p.Request())
			if err != nil {
				t.Fatalf("%s: next: %v", a.Name, err)
			}
			if _, err := p.Feed(occ); err != nil {
				t.Fatalf("%s: feed: %v", a.Name, err)
			}
		}
		rep := p.Report()
		if !rep.Reproduced {
			t.Fatalf("%s: not reproduced: %s", a.Name, rep.FailReason)
		}
		folded, err := keyselect.InstrumentChain(mod, rep.Chain())
		if err != nil {
			t.Fatalf("%s: fold: %v", a.Name, err)
		}
		if folded.Dump() != p.Deployed().Dump() {
			t.Errorf("%s: folding the %d-step chain does not rebuild the deployed module", a.Name, len(rep.Chain()))
		}
	}
}
