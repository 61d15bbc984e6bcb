package solver

import (
	"fmt"

	"execrecon/internal/expr"
)

// arrayElim rewrites constraints into pure bitvector form.
//
// Reads through store chains become if-then-else ladders:
//
//	Select(Store(a, i, v), j)  ⇒  Ite(j == i, v, Select(a, j))
//
// so the formula size (and hence solver work) grows with the length
// of the symbolic write chain — the first complexity source of
// §3.3.1. Reads from free arrays are Ackermannized: each distinct
// read becomes a fresh variable, with pairwise functional-consistency
// constraints; objects read at many symbolic offsets therefore cost
// quadratically — the second complexity source (large symbolic
// memory objects).
type arrayElim struct {
	b      *expr.Builder
	budget *Budget

	cache     []*expr.Expr // indexed by Expr.ID(); nil until rewritten
	cached    []*expr.Expr // nodes with a cache entry
	selCache  map[[2]uint64]*expr.Expr
	reads     map[string][]readTerm // array var name -> reads
	readOrder []string              // array names in first-read order
	fresh     int
	err       error
}

type readTerm struct {
	idx *expr.Expr // rewritten index
	v   *expr.Expr // fresh variable standing for the read value
}

var errBudget = fmt.Errorf("solver: budget exhausted")

func newArrayElim(b *expr.Builder, budget *Budget) *arrayElim {
	return &arrayElim{
		b:        b,
		budget:   budget,
		selCache: make(map[[2]uint64]*expr.Expr),
		reads:    make(map[string][]readTerm),
	}
}

// restart empties a for a new query metered by budget, clearing only
// the cache entries the last query set.
func (a *arrayElim) restart(budget *Budget) {
	for _, e := range a.cached {
		a.cache[e.ID()] = nil
	}
	a.cached = a.cached[:0]
	clear(a.selCache)
	clear(a.reads)
	a.readOrder = a.readOrder[:0]
	a.budget, a.fresh, a.err = budget, 0, nil
}

// run rewrites each constraint into out, which it returns with the
// Ackermann side conditions appended after the len(cs) rewritten
// constraints.
func (a *arrayElim) run(cs, out []*expr.Expr) ([]*expr.Expr, error) {
	for _, c := range cs {
		r := a.rewrite(c)
		if a.err != nil {
			return nil, a.err
		}
		out = append(out, r)
	}
	return a.consistency(out)
}

// consistency emits the Ackermann functional-consistency constraints:
// each read of a free array is paired against all earlier reads of the
// same array.
func (a *arrayElim) consistency(out []*expr.Expr) ([]*expr.Expr, error) {
	// Iterate arrays in first-read order, not map order: lemma order
	// decides clause and watcher order in the SAT core, and through
	// them which of several models the search finds — map iteration
	// here made whole reconstruction runs differ from process to
	// process.
	for _, name := range a.readOrder {
		rs := a.reads[name]
		for j := 1; j < len(rs); j++ {
			for i := 0; i < j; i++ {
				if !a.budget.spend(2) {
					return nil, errBudget
				}
				imp := a.b.Implies(a.b.Eq(rs[i].idx, rs[j].idx), a.b.Eq(rs[i].v, rs[j].v))
				out = append(out, imp)
			}
		}
	}
	return out, nil
}

func (a *arrayElim) rewrite(e *expr.Expr) *expr.Expr {
	if a.err != nil {
		return e
	}
	if id := e.ID(); id < uint64(len(a.cache)) && a.cache[id] != nil {
		return a.cache[id]
	}
	if !a.budget.spend(1) {
		a.err = errBudget
		return e
	}
	var r *expr.Expr
	switch e.Kind {
	case expr.KConst, expr.KVar:
		r = e
	case expr.KSelect:
		idx := a.rewrite(e.Args[1])
		if a.err != nil {
			return e
		}
		r = a.selectOf(e.Args[0], idx)
	case expr.KArrayVar, expr.KStore, expr.KConstArray:
		// Array-sorted nodes are handled via selectOf by their
		// consumers; they should not be rewritten standalone.
		a.err = fmt.Errorf("solver: standalone array term %s in constraint", e.Kind)
		return e
	default:
		args := make([]*expr.Expr, len(e.Args))
		changed := false
		for i, arg := range e.Args {
			args[i] = a.rewrite(arg)
			if args[i] != arg {
				changed = true
			}
		}
		if a.err != nil {
			return e
		}
		if !changed {
			r = e
		} else {
			// Rebuilt through the builder so simplifications
			// re-apply to the rewritten arguments.
			r = a.b.Apply(e.Kind, e.Width, e.Lo, args...)
		}
	}
	if n := int(e.ID()) + 1; n > len(a.cache) {
		a.cache = append(a.cache, make([]*expr.Expr, n-len(a.cache))...)
	}
	a.cache[e.ID()] = r
	a.cached = append(a.cached, e)
	return r
}

// selectOf lowers a read of arr at (already rewritten) index idx.
func (a *arrayElim) selectOf(arr, idx *expr.Expr) *expr.Expr {
	key := [2]uint64{arr.ID(), idx.ID()}
	if r, ok := a.selCache[key]; ok {
		return r
	}
	if !a.budget.spend(2) {
		a.err = errBudget
		return idx
	}
	var r *expr.Expr
	switch arr.Kind {
	case expr.KStore:
		si := a.rewrite(arr.Args[1])
		sv := a.rewrite(arr.Args[2])
		if a.err != nil {
			return idx
		}
		rest := a.selectOf(arr.Args[0], idx)
		if a.err != nil {
			return idx
		}
		r = a.b.Ite(a.b.Eq(idx, si), sv, rest)
	case expr.KConstArray:
		r = a.rewrite(arr.Args[0])
	case expr.KIte:
		cond := a.rewrite(arr.Args[0])
		t := a.selectOf(arr.Args[1], idx)
		f := a.selectOf(arr.Args[2], idx)
		if a.err != nil {
			return idx
		}
		r = a.b.Ite(cond, t, f)
	case expr.KArrayVar:
		if idx.IsConst() {
			// Reads at distinct constants are independent; name
			// them canonically so repeats share a variable and
			// need no Ackermann treatment against each other.
			r = a.b.Var(fmt.Sprintf("%s@%d", arr.Name, idx.Val), arr.Width)
		} else {
			a.fresh++
			r = a.b.Var(fmt.Sprintf("$rd%d!%s", a.fresh, arr.Name), arr.Width)
		}
		if len(a.reads[arr.Name]) == 0 {
			a.readOrder = append(a.readOrder, arr.Name)
		}
		a.reads[arr.Name] = append(a.reads[arr.Name], readTerm{idx: idx, v: r})
	default:
		a.err = fmt.Errorf("solver: select of %s", arr.Kind)
		return idx
	}
	a.selCache[key] = r
	return r
}
