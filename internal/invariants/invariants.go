// Package invariants implements a Daikon-style likely-invariant
// detector and a MIMIC-style failure localizer (§5.4). Invariants are
// inferred over function entry and exit program points from passing
// executions; presented with a failing execution (in ER's use, the
// reconstructed one), the localizer reports the invariants the
// failure violates, ranked, as candidate root causes.
package invariants

import (
	"fmt"
	"sort"

	"execrecon/internal/ir"
	"execrecon/internal/vm"
)

// Obs is one observation at a program point: the concrete values of
// the point's variables (arguments at entry, return value at exit).
type Obs struct {
	Point string // "func:enter" or "func:exit"
	Vars  []int64
}

// Collect runs mod under the workload and gathers observations at
// every function entry and exit.
func Collect(mod *ir.Module, w *vm.Workload, seed int64) ([]Obs, *vm.Result) {
	return CollectEntry(mod, "main", w, seed)
}

// CollectEntry is Collect with an explicit entry function.
func CollectEntry(mod *ir.Module, entry string, w *vm.Workload, seed int64) ([]Obs, *vm.Result) {
	var obs []Obs
	cfg := vm.Config{
		Input: w,
		Seed:  seed,
		OnCall: func(fn string, args []uint64) {
			vars := make([]int64, len(args))
			for i, a := range args {
				vars[i] = int64(a)
			}
			obs = append(obs, Obs{Point: fn + ":enter", Vars: vars})
		},
		OnReturn: func(fn string, ret uint64) {
			obs = append(obs, Obs{Point: fn + ":exit", Vars: []int64{int64(ret)}})
		},
	}
	res := vm.New(mod, cfg).Run(entry)
	return obs, res
}

// varInv tracks candidate unary invariants of one variable.
type varInv struct {
	samples  int
	min, max int64
	nonzero  bool
	distinct map[int64]bool // capped; nil once overflowed
}

const maxDistinct = 5

func newVarInv() *varInv {
	return &varInv{min: 1<<63 - 1, max: -(1 << 63), nonzero: true, distinct: map[int64]bool{}}
}

func (v *varInv) observe(x int64) {
	v.samples++
	if x < v.min {
		v.min = x
	}
	if x > v.max {
		v.max = x
	}
	if x == 0 {
		v.nonzero = false
	}
	if v.distinct != nil {
		v.distinct[x] = true
		if len(v.distinct) > maxDistinct {
			v.distinct = nil
		}
	}
}

// pairInv tracks candidate binary invariants between two variables of
// one point.
type pairInv struct {
	eq, le, ge bool
}

// pointInv aggregates invariants of one program point.
type pointInv struct {
	nvars int
	vars  []*varInv
	pairs map[[2]int]*pairInv
}

// Set is an inferred likely-invariant set.
type Set struct {
	points map[string]*pointInv
	runs   int
}

// Infer merges observations from several passing runs (the paper's
// case study uses 4) into a likely-invariant set.
func Infer(passingRuns [][]Obs) *Set {
	s := &Set{points: make(map[string]*pointInv), runs: len(passingRuns)}
	for _, run := range passingRuns {
		for _, o := range run {
			p := s.points[o.Point]
			if p == nil {
				p = &pointInv{nvars: len(o.Vars), pairs: make(map[[2]int]*pairInv)}
				for range o.Vars {
					p.vars = append(p.vars, newVarInv())
				}
				for i := 0; i < len(o.Vars); i++ {
					for j := i + 1; j < len(o.Vars); j++ {
						p.pairs[[2]int{i, j}] = &pairInv{eq: true, le: true, ge: true}
					}
				}
				s.points[o.Point] = p
			}
			if len(o.Vars) != p.nvars {
				continue
			}
			for i, x := range o.Vars {
				p.vars[i].observe(x)
			}
			for ij, pr := range p.pairs {
				a, b := o.Vars[ij[0]], o.Vars[ij[1]]
				if a != b {
					pr.eq = false
				}
				if a > b {
					pr.le = false
				}
				if a < b {
					pr.ge = false
				}
			}
		}
	}
	return s
}

// Violation is one invariant broken by the failing execution.
type Violation struct {
	Point string
	Desc  string
	// Confidence grows with the number of supporting samples.
	Confidence int
}

// Check evaluates the failing run's observations against the set,
// returning the violated invariants ranked by confidence.
func (s *Set) Check(failing []Obs) []Violation {
	var out []Violation
	seen := make(map[string]bool)
	add := func(point, desc string, conf int) {
		key := point + "|" + desc
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Violation{Point: point, Desc: desc, Confidence: conf})
	}
	for _, o := range failing {
		p := s.points[o.Point]
		if p == nil {
			add(o.Point, "program point never reached in passing runs", 1)
			continue
		}
		if len(o.Vars) != p.nvars {
			continue
		}
		for i, x := range o.Vars {
			v := p.vars[i]
			if x < v.min || x > v.max {
				add(o.Point, fmt.Sprintf("var%d = %d outside observed range [%d, %d]", i, x, v.min, v.max), v.samples)
			}
			if v.nonzero && x == 0 {
				add(o.Point, fmt.Sprintf("var%d == 0 (always nonzero in passing runs)", i), v.samples)
			}
			if v.distinct != nil && !v.distinct[x] {
				add(o.Point, fmt.Sprintf("var%d = %d not in observed value set", i, x), v.samples)
			}
		}
		for ij, pr := range p.pairs {
			a, b := o.Vars[ij[0]], o.Vars[ij[1]]
			if pr.eq && a != b {
				add(o.Point, fmt.Sprintf("var%d == var%d violated (%d vs %d)", ij[0], ij[1], a, b), p.vars[ij[0]].samples)
			}
			if pr.le && a > b {
				add(o.Point, fmt.Sprintf("var%d <= var%d violated (%d vs %d)", ij[0], ij[1], a, b), p.vars[ij[0]].samples)
			}
			if pr.ge && a < b {
				add(o.Point, fmt.Sprintf("var%d >= var%d violated (%d vs %d)", ij[0], ij[1], a, b), p.vars[ij[0]].samples)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Point < out[j].Point
	})
	return out
}

// NumPoints returns the number of program points with invariants.
func (s *Set) NumPoints() int { return len(s.points) }
