// Package apps contains the evaluation programs: minc analogs of the
// 13 real-world bugs of Table 1, plus the coreutils od/pr analogs of
// the §5.4 MIMIC case study. Each program is a small but genuine
// system (a parser, an interpreter, a store, a compressor, …) whose
// bug is patterned after the referenced CVE/issue: same bug class,
// same structural cause (an unchecked length, an overflowing size
// computation, a flag interaction leaving a pointer NULL, a race on a
// shared buffer, …).
//
// Every app supplies a failing workload (the production input that
// triggers the bug) and a benign workload generator (the performance
// benchmark used for the Fig. 6 overhead measurements).
package apps

import (
	"fmt"
	"strings"
	"sync"

	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/vm"
)

// App is one evaluation program.
type App struct {
	// Name matches the paper's Application-BugID row.
	Name string
	// BugType is the Table 1 bug class.
	BugType string
	// MT marks multithreaded programs.
	MT bool
	// Kind is the expected failure kind of the failing workload.
	Kind vm.FailKind
	// Src is the minc source.
	Src string
	// Failing returns the bug-triggering workload.
	Failing func() *vm.Workload
	// Benign returns the performance workload for run i.
	Benign func(i int) *vm.Workload
	// Seed is the scheduler seed of the failing run.
	Seed int64
	// QueryBudget overrides DefaultQueryBudget (0 = default). It
	// plays the role of the paper's 30 s solver timeout, scaled to our
	// solver's step metering; Budget resolves it.
	QueryBudget int64

	once sync.Once
	mod  *ir.Module
	err  error
}

// DefaultQueryBudget is the per-query solver budget of an app that sets
// no QueryBudget — the step-metered analog of the paper's 30-second
// solver timeout (§4).
const DefaultQueryBudget = 200_000

// Budget returns the per-query solver budget the Table 1 runs give the
// app: its QueryBudget, else DefaultQueryBudget.
func (a *App) Budget() int64 {
	if a.QueryBudget != 0 {
		return a.QueryBudget
	}
	return DefaultQueryBudget
}

// Module compiles (once) and returns the app's module.
func (a *App) Module() (*ir.Module, error) {
	a.once.Do(func() { a.mod, a.err = minc.Compile(a.Name, a.Src) })
	if a.err != nil {
		return nil, fmt.Errorf("apps: %s: %w", a.Name, a.err)
	}
	return a.mod, nil
}

// SrcLines returns the minc line count (the "LoC" analog of Table 1).
func (a *App) SrcLines() int { return strings.Count(a.Src, "\n") + 1 }

// Run executes the app's program on a workload under a scheduler seed
// by concrete VM execution — the shared helper for ground-truth
// checks (does the failing input fail? do benign inputs pass?).
func (a *App) Run(w *vm.Workload, seed int64) (*vm.Result, error) {
	mod, err := a.Module()
	if err != nil {
		return nil, err
	}
	return vm.New(mod, vm.Config{Input: w, Seed: seed}).Run("main"), nil
}

// All returns the 13 Table 1 apps in the paper's row order.
func All() []*App {
	return []*App{
		PHP2012_2386(),
		PHP74194(),
		SQLite7be932d(),
		SQLite787fa71(),
		SQLite4e8e485(),
		Nasm2004_1287(),
		Objdump2018_6323(),
		Matrixssl2014_1569(),
		Memcached2019_11596(),
		Libpng2004_0597(),
		Bash108885(),
		Python2018_1000030(),
		Pbzip2(),
	}
}

// ByName returns the named app or nil.
func ByName(name string) *App {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// xorshift is a tiny deterministic generator for benign workloads.
type xorshift uint64

func newRand(seed int64) *xorshift {
	x := xorshift(uint64(seed)*2862933555777941757 + 3037000493)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) uint64 { return x.next() % uint64(n) }
