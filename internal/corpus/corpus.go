// Package corpus is the scenario generator that scales the evaluation
// from the 13 hand-written Table 1 programs to a population of
// hundreds of generated failures (ROADMAP item 3, after "Reproducing
// Failures in Fault Signatures": reproduction evaluated as a
// *population* property over generated fault patterns).
//
// A scenario is a minc program produced from a randomized skeleton
// (straight-line, branching, loop, call-graph, or spawn-based
// multithreaded) into which one known bug pattern has been injected:
// integer overflow defeating a bounds check, a mis-checked
// out-of-bounds index, a use-after-free-style stale-slot read, an
// off-by-one loop bound, an assertion violation, and — through the
// VM's spawn/lock machinery — lock inversion and atomicity violation.
// Every scenario carries its ground truth: the failing input vector
// and scheduler seed, the expected failure kind and site, and a benign
// input distribution. Generation self-verifies each scenario by
// concrete VM execution (the failing input must fail with the expected
// signature; N benign inputs must not fail) before the scenario is
// handed to the ER loop, so population-level reproduction rates
// measure ER, not generator noise.
//
// Generation is deterministic: the same GenConfig.Seed produces
// byte-identical programs, workloads, and scheduler seeds.
package corpus

import (
	"fmt"
	"sync"

	"execrecon/internal/apps"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/vm"
)

// Pattern is an injected bug class.
type Pattern int

// The injected bug patterns. The first five are sequential; the last
// two exercise the multithreaded machinery (spawn/lock/yield).
const (
	// PatternOverflow: a size computation in a narrow integer width
	// wraps for large inputs, so the bounds check passes and a
	// far-out-of-bounds store follows (the classic allocation-size
	// overflow shape).
	PatternOverflow Pattern = iota
	// PatternOOB: an index is validated against the wrong table's
	// bound, admitting indices past the accessed array's end.
	PatternOOB
	// PatternStaleSlot: an evict path frees a slot's object but
	// leaves the stale pointer in the table; a later lookup checks the
	// pointer (not the liveness flag) and reads freed memory.
	PatternStaleSlot
	// PatternOffByOne: a loop bound uses <= where < was meant; only
	// the exact boundary input reads one element past the end.
	PatternOffByOne
	// PatternAssert: an accumulated invariant check fails for a rare
	// input combination the solver must invert.
	PatternAssert
	// PatternLockInversion: two workers acquire the same two locks in
	// opposite orders with a descheduling point in between; the
	// failing input enables both locking paths concurrently and the
	// run deadlocks.
	PatternLockInversion
	// PatternAtomicity: a check-then-act on a shared slot table races
	// with a clearing writer (pointer cleared before the liveness
	// flag, outside the reader's lock) — the memcached-2019-11596
	// class, generated in volume.
	PatternAtomicity
	numPatterns
)

var patternNames = [numPatterns]string{
	"overflow", "oob-index", "stale-slot", "off-by-one",
	"assert", "lock-inversion", "atomicity",
}

var patternBugTypes = [numPatterns]string{
	"Integer overflow", "Out-of-bounds access", "Use-after-free",
	"Off-by-one", "Assertion violation", "Deadlock", "Atomicity violation",
}

// String returns the pattern's short slug.
func (p Pattern) String() string {
	if p < 0 || p >= numPatterns {
		return fmt.Sprintf("pattern(%d)", int(p))
	}
	return patternNames[p]
}

// BugType returns the Table 1-style bug class label.
func (p Pattern) BugType() string { return patternBugTypes[p] }

// MT reports whether the pattern generates multithreaded programs.
func (p Pattern) MT() bool { return p == PatternLockInversion || p == PatternAtomicity }

// Patterns returns all patterns in generation order.
func Patterns() []Pattern {
	out := make([]Pattern, numPatterns)
	for i := range out {
		out[i] = Pattern(i)
	}
	return out
}

// Scenario is one generated program plus its ground truth.
type Scenario struct {
	// Name is unique within a generated population
	// (corpus-<pattern>-<index>).
	Name string
	// Pattern is the injected bug class.
	Pattern Pattern
	// SubSeed is the generator stream that produced this scenario
	// (diagnostic; the population is reproduced from GenConfig.Seed).
	SubSeed uint64
	// Src is the generated minc source.
	Src string
	// Kind is the expected failure kind of the ground-truth input.
	Kind vm.FailKind
	// FailFunc is the function expected to fail ("" for
	// scheduler-level failures such as deadlocks, which carry no
	// located site).
	FailFunc string
	// Failing is the ground-truth bug-triggering input vector
	// (callers clone before running).
	Failing *vm.Workload
	// SchedSeed is the scheduler seed under which Failing fails
	// (found by bounded search for the multithreaded patterns).
	SchedSeed int64
	// BenignSeeds are scheduler seeds the benign distribution was
	// verified under; production runs must draw from these.
	BenignSeeds []int64
	// Benign returns the i-th benign workload (deterministic in i).
	Benign func(i int) *vm.Workload
	// QueryBudget is the per-query solver budget for this scenario's
	// reconstruction.
	QueryBudget int64

	once sync.Once
	mod  *ir.Module
	err  error
}

// Module compiles (once) and returns the scenario's module.
func (s *Scenario) Module() (*ir.Module, error) {
	s.once.Do(func() { s.mod, s.err = minc.Compile(s.Name, s.Src) })
	if s.err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", s.Name, s.err)
	}
	return s.mod, nil
}

// BenignSeed returns the scheduler seed for the i-th benign production
// run, cycling through the verified seeds.
func (s *Scenario) BenignSeed(i int) int64 {
	return s.BenignSeeds[i%len(s.BenignSeeds)]
}

// App adapts the scenario to the evaluation-program shape shared with
// the hand-written Table 1 set, so every driver that consumes
// *apps.App (fleet conversion, overhead runners) accepts
// generated scenarios unchanged.
func (s *Scenario) App() *apps.App {
	return &apps.App{
		Name:        s.Name,
		BugType:     s.Pattern.BugType(),
		MT:          s.Pattern.MT(),
		Kind:        s.Kind,
		Src:         s.Src,
		Failing:     func() *vm.Workload { return s.Failing.Clone() },
		Benign:      s.Benign,
		Seed:        s.SchedSeed,
		QueryBudget: s.QueryBudget,
	}
}

// Gen returns the production workload generator for this scenario's
// machines: benign traffic (under the verified benign scheduler
// seeds) with the ground-truth failing workload recurring every
// failEvery-th run — the prod.Machine producer shape the fleet
// deploys directly.
func (s *Scenario) Gen(failEvery int) func(n int) (*vm.Workload, int64) {
	return prod.Mix(
		func() *vm.Workload { return s.Failing.Clone() }, s.SchedSeed,
		s.Benign, s.BenignSeed, failEvery)
}
