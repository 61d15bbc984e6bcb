package corpus

import (
	"fmt"
)

// Solver budgets for generated scenarios, matching the range the
// hand-written Table 1 apps use (the generated programs are the same
// size class).
const (
	defaultSTBudget = 20000
	defaultMTBudget = 5000
)

// GenConfig configures a corpus generation run.
type GenConfig struct {
	// N is the number of scenarios to generate.
	N int
	// Seed is the master seed; the same seed yields byte-identical
	// scenarios.
	Seed uint64
	// Patterns restricts generation to a subset (default: all, in
	// round-robin order so any N ≥ len(Patterns()) spans every
	// pattern).
	Patterns []Pattern
	// BenignRuns is the number of benign executions each scenario is
	// verified against (default 6).
	BenignRuns int
	// SeedSearch bounds the scheduler-seed search for multithreaded
	// patterns (default 64).
	SeedSearch int
	// Attempts bounds generation retries per scenario slot before
	// giving up (default 8). A retry redraws the scenario from an
	// independent sub-seed stream, so determinism is preserved.
	Attempts int
}

func (c *GenConfig) withDefaults() GenConfig {
	out := *c
	if out.BenignRuns == 0 {
		out.BenignRuns = 6
	}
	if out.SeedSearch == 0 {
		out.SeedSearch = 64
	}
	if out.Attempts == 0 {
		out.Attempts = 8
	}
	if len(out.Patterns) == 0 {
		out.Patterns = Patterns()
	}
	return out
}

// GenStats summarizes a generation run.
type GenStats struct {
	// Generated counts accepted (verified) scenarios.
	Generated int
	// Rejected counts draws that failed self-verification and were
	// redrawn from the next attempt stream.
	Rejected int
	// PerPattern counts accepted scenarios by pattern slug.
	PerPattern map[string]int
}

// Generate produces cfg.N self-verified scenarios. Every returned
// scenario's ground truth has been confirmed by concrete VM execution:
// the failing workload fails with the expected kind (at the expected
// function, where the pattern has one) under the recorded scheduler
// seed, and BenignRuns benign workloads complete cleanly. Scenarios
// are assigned patterns round-robin, so N ≥ len(patterns) spans every
// requested pattern.
func Generate(cfg GenConfig) ([]*Scenario, *GenStats, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, nil, fmt.Errorf("corpus: N must be positive, got %d", cfg.N)
	}
	stats := &GenStats{PerPattern: make(map[string]int)}
	out := make([]*Scenario, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p := cfg.Patterns[i%len(cfg.Patterns)]
		var sc *Scenario
		var lastErr error
		for attempt := 0; attempt < cfg.Attempts; attempt++ {
			seed := subSeed(cfg.Seed, i, attempt)
			cand := genOne(p, seed)
			cand.Name = fmt.Sprintf("corpus-%s-%03d", p, i)
			if err := cand.SelfVerify(cfg.BenignRuns, cfg.SeedSearch); err != nil {
				lastErr = err
				stats.Rejected++
				continue
			}
			sc = cand
			break
		}
		if sc == nil {
			return nil, stats, fmt.Errorf("corpus: scenario %d (%s): no verifiable draw in %d attempts: %w",
				i, p, cfg.Attempts, lastErr)
		}
		out = append(out, sc)
		stats.Generated++
		stats.PerPattern[p.String()]++
	}
	return out, stats, nil
}

// genOne draws one scenario of the given pattern from the seed. The
// draw is deterministic; verification happens separately.
func genOne(p Pattern, seed uint64) *Scenario {
	r := newRNG(seed)
	var sc *Scenario
	switch p {
	case PatternLockInversion:
		sc = genLockInversion(r)
	case PatternAtomicity:
		sc = genAtomicity(r)
	default:
		sc = &Scenario{Pattern: p}
		var spec *stSpec
		switch p {
		case PatternOverflow:
			spec = genOverflow(r)
		case PatternOOB:
			spec = genOOB(r)
		case PatternStaleSlot:
			spec = genStaleSlot(r)
		case PatternOffByOne:
			spec = genOffByOne(r)
		case PatternAssert:
			spec = genAssert(r)
		default:
			panic(fmt.Sprintf("corpus: unknown pattern %d", int(p)))
		}
		emitST(r, spec, sc)
	}
	sc.SubSeed = seed
	return sc
}
