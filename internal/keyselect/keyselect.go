// Package keyselect implements key data value selection (§3.3): given
// a stalled shepherded execution's constraint graph, it computes the
// bottleneck set (the symbolic values on the dominant write chains)
// and then minimizes the recording cost by substituting expensive
// elements with cheaper ancestor sets from which they can be deduced —
// the DFS of §3.3.2, with cost(E) = sizeof(E) × refcount(E). The
// output is a set of instrumentation sites at which the ER runtime
// inserts ptwrite instructions (§3.3.3).
package keyselect

import (
	"fmt"
	"sort"
	"time"

	"execrecon/internal/cgraph"
	"execrecon/internal/dataflow"
	"execrecon/internal/expr"
	"execrecon/internal/ir"
	"execrecon/internal/symex"
)

// Element is one member of the recording set.
type Element struct {
	Expr *expr.Expr
	Site symex.SiteKey
	// CostBytes = sizeof(value) × dynamic count at the site.
	CostBytes int64
	Width     ir.Width
}

// Selection is the result of one key data value selection pass.
type Selection struct {
	// Bottleneck is the raw bottleneck set before minimization.
	Bottleneck []*expr.Expr
	// Recording is the minimized recording set.
	Recording []Element
	// Sites is the deduplicated instrumentation site list.
	Sites []symex.SiteKey
	// TotalCostBytes is the summed recording cost.
	TotalCostBytes int64
	GraphNodes     int
	Elapsed        time.Duration
}

const infCost = int64(1) << 60

// Select analyzes a stalled symbolic execution result and returns the
// recording set.
func Select(res *symex.Result) (*Selection, error) {
	return SelectWith(res, Options{})
}

// Options tunes the selection for the minimization ablation (E10).
type Options struct {
	// NoMinimize skips the §3.3.2 cost-reduction DFS and records the
	// raw bottleneck set directly (the "naive strategy" the paper
	// rejects for its overhead).
	NoMinimize bool
}

// SelectWith is Select with explicit options.
func SelectWith(res *symex.Result, opts Options) (*Selection, error) {
	start := time.Now()
	objs := make([]cgraph.Object, 0, len(res.Objects))
	for _, o := range res.Objects {
		objs = append(objs, cgraph.Object{Label: o.Label, Size: o.Size, Arr: o.Arr})
	}
	g := cgraph.Build(res.PathConstraint, objs)
	bottleneck := g.BottleneckSet()
	if len(bottleneck) == 0 {
		// The stall preceded any symbolic write chain: fall back to
		// the expression whose query stalled, plus the symbolic
		// read indices of large-object accesses.
		if res.StallExpr != nil && !res.StallExpr.IsConst() {
			bottleneck = append(bottleneck, res.StallExpr)
		}
		bottleneck = append(bottleneck, g.ReadIndexSet()...)
	}
	if len(bottleneck) == 0 {
		// Last resort: record the raw program inputs appearing in
		// the path constraint (the paper notes parts of the input
		// are themselves key data values).
		seen := make(map[*expr.Expr]bool)
		for _, c := range res.PathConstraint {
			for _, v := range expr.VarsOf(c) {
				if v.Kind == expr.KVar && !seen[v] {
					seen[v] = true
					bottleneck = append(bottleneck, v)
				}
			}
		}
	}
	if len(bottleneck) == 0 {
		return nil, fmt.Errorf("keyselect: empty bottleneck set (no symbolic write chains, reads, or stall expression)")
	}
	sel := &Selection{Bottleneck: bottleneck, GraphNodes: g.NumNodes()}

	ks := &selector{res: res}
	var recording []Element
	if opts.NoMinimize {
		recording = ks.direct(bottleneck)
	} else {
		recording = ks.minimize(bottleneck)
	}
	if len(recording) == 0 {
		return nil, fmt.Errorf("keyselect: no recordable elements for bottleneck set of %d", len(bottleneck))
	}

	siteSeen := make(map[symex.SiteKey]bool)
	for _, el := range recording {
		sel.Recording = append(sel.Recording, el)
		sel.TotalCostBytes += el.CostBytes
		if !siteSeen[el.Site] {
			siteSeen[el.Site] = true
			sel.Sites = append(sel.Sites, el.Site)
		}
	}
	sort.Slice(sel.Sites, func(i, j int) bool {
		a, b := sel.Sites[i], sel.Sites[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.InstrID < b.InstrID
	})
	sel.Elapsed = time.Since(start)
	return sel, nil
}

type selector struct {
	res *symex.Result
}

// costOf returns the recording cost of node n, or infCost when n is
// not recordable (no defining site).
func (s *selector) costOf(n *expr.Expr) (int64, symex.SiteKey, bool) {
	key, ok := s.res.ExprSites[n.ID()]
	if !ok {
		return infCost, symex.SiteKey{}, false
	}
	st := s.res.Sites[key]
	if st == nil {
		return infCost, symex.SiteKey{}, false
	}
	width := int64(st.Width.Bytes())
	if width == 0 {
		width = 8
	}
	return width * st.Count, key, true
}

// direct is the naive strategy §3.3.2 rejects: record every
// bottleneck element where it first appears, with no cost comparison.
// Unrecordable wrapper nodes are covered by their *shallowest*
// recordable descendants (the values nearest the bottleneck), not the
// cheapest ones.
func (s *selector) direct(bottleneck []*expr.Expr) []Element {
	set := make(map[*expr.Expr]bool)
	var out []Element
	add := func(e *expr.Expr) {
		if set[e] {
			return
		}
		set[e] = true
		cost, site, ok := s.costOf(e)
		if !ok {
			return
		}
		st := s.res.Sites[site]
		out = append(out, Element{Expr: e, Site: site, CostBytes: cost, Width: st.Width})
	}
	var cover func(e *expr.Expr, depth int)
	cover = func(e *expr.Expr, depth int) {
		if e.IsConst() || depth > 256 {
			return
		}
		if _, _, ok := s.costOf(e); ok {
			add(e)
			return
		}
		for _, a := range e.Args {
			cover(a, depth+1)
		}
	}
	for _, e := range bottleneck {
		cover(e, 0)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Expr.ID() < out[j].Expr.ID() })
	return out
}

// minimize implements the iterative cost-reduction of §3.3.2.
func (s *selector) minimize(bottleneck []*expr.Expr) []Element {
	// The working set, keyed by node.
	set := make(map[*expr.Expr]bool)
	order := make([]*expr.Expr, 0, len(bottleneck))
	for _, e := range bottleneck {
		if !set[e] {
			set[e] = true
			order = append(order, e)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range order {
			if !set[e] {
				continue
			}
			selfCost, _, recordable := s.costOf(e)
			// Support cost treating every *other* set element as
			// already known.
			delete(set, e)
			suppCost, suppSet := s.support(e, set)
			if suppCost < selfCost || (!recordable && suppCost < infCost) {
				// Replace e with its support.
				for n := range suppSet {
					if !set[n] {
						set[n] = true
						order = append(order, n)
					}
				}
				changed = true
			} else {
				set[e] = true // keep e
			}
		}
	}
	var out []Element
	for _, e := range order {
		if !set[e] {
			continue
		}
		cost, site, ok := s.costOf(e)
		if !ok {
			// Unrecordable leftovers are dropped; their support
			// was also unrecordable.
			continue
		}
		st := s.res.Sites[site]
		out = append(out, Element{Expr: e, Site: site, CostBytes: cost, Width: st.Width})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Expr.ID() < out[j].Expr.ID() })
	return out
}

// support computes the cheapest set of recordable nodes (outside the
// known set) from which n can be deduced, via memoized DFS over the
// constraint graph.
func (s *selector) support(n *expr.Expr, known map[*expr.Expr]bool) (int64, map[*expr.Expr]bool) {
	memo := make(map[*expr.Expr]*suppResult)
	r := s.supp(n, known, memo, 0)
	return r.cost, r.set
}

type suppResult struct {
	cost int64
	set  map[*expr.Expr]bool
}

func (s *selector) supp(n *expr.Expr, known map[*expr.Expr]bool, memo map[*expr.Expr]*suppResult, depth int) *suppResult {
	if n.IsConst() || n.Kind == expr.KConstArray && n.Args[0].IsConst() {
		return &suppResult{cost: 0, set: map[*expr.Expr]bool{}}
	}
	if known[n] {
		return &suppResult{cost: 0, set: map[*expr.Expr]bool{}}
	}
	if r, ok := memo[n]; ok {
		return r
	}
	if depth > 10_000 {
		return &suppResult{cost: infCost, set: map[*expr.Expr]bool{}}
	}
	// Option A: record n itself.
	best := &suppResult{cost: infCost, set: map[*expr.Expr]bool{}}
	if cost, _, ok := s.costOf(n); ok {
		best = &suppResult{cost: cost, set: map[*expr.Expr]bool{n: true}}
	}
	// Option B: deduce n from its operands.
	if len(n.Args) > 0 {
		var sum int64
		union := make(map[*expr.Expr]bool)
		feasible := true
		for _, a := range n.Args {
			r := s.supp(a, known, memo, depth+1)
			if r.cost >= infCost {
				feasible = false
				break
			}
			for k := range r.set {
				if !union[k] {
					union[k] = true
					if c, _, ok := s.costOf(k); ok {
						sum += c
					}
				}
			}
			if sum >= best.cost {
				feasible = false
				break
			}
		}
		if feasible && sum < best.cost {
			best = &suppResult{cost: sum, set: union}
		}
	}
	memo[n] = best
	return best
}

// Instrument returns a clone of mod with a ptwrite inserted after
// every selected site (§3.3.3). Instruction IDs of existing
// instructions are preserved; the inserted ptwrites receive fresh IDs.
//
// Placements are validated against the control-flow graph: a site must
// name a value-producing instruction in a block that is reachable from
// the function entry (block 0, which dominates every reachable block).
// An unreachable or non-defining site would emit a ptwrite that the
// traced run never executes (or that records garbage),
// desynchronizing event matching in the next shepherded run.
func Instrument(mod *ir.Module, sites []symex.SiteKey) (*ir.Module, error) {
	nm := mod.Clone()
	cfgs := make(map[*ir.Func]*dataflow.CFG)
	for _, site := range sites {
		fn := nm.FuncByName(site.Func)
		if fn == nil {
			return nil, fmt.Errorf("keyselect: instrumenting unknown function %q", site.Func)
		}
		bi, ii := fn.FindInstrByID(site.InstrID)
		if bi < 0 {
			return nil, fmt.Errorf("keyselect: site %s#%d not found", site.Func, site.InstrID)
		}
		cfg := cfgs[fn]
		if cfg == nil {
			cfg = dataflow.BuildCFG(fn)
			cfgs[fn] = cfg
		}
		if !cfg.Reachable[bi] {
			return nil, fmt.Errorf("keyselect: site %s#%d is in unreachable block b%d", site.Func, site.InstrID, bi)
		}
		blk := fn.Blocks[bi]
		orig := blk.Instrs[ii]
		if orig.Op.IsTerminator() {
			return nil, fmt.Errorf("keyselect: site %s#%d is a terminator", site.Func, site.InstrID)
		}
		if !dataflow.WritesReg(&orig) {
			return nil, fmt.Errorf("keyselect: site %s#%d (%s) defines no register", site.Func, site.InstrID, orig.Op)
		}
		ptw := ir.Instr{
			Op:   ir.OpPtWrite,
			W:    widthOfSite(&orig),
			A:    ir.Reg(orig.Dst),
			ID:   fn.NewInstrID(),
			Line: orig.Line,
		}
		blk.Instrs = append(blk.Instrs[:ii+1],
			append([]ir.Instr{ptw}, blk.Instrs[ii+1:]...)...)
	}
	if err := nm.Validate(); err != nil {
		return nil, fmt.Errorf("keyselect: instrumented module invalid: %w", err)
	}
	return nm, nil
}

// InstrumentChain folds a rollout chain onto base: each step's sites
// are instrumented into the module the previous steps produced, which
// re-derives the module a pipeline deployed from its report's chain.
func InstrumentChain(base *ir.Module, chain [][]symex.SiteKey) (*ir.Module, error) {
	mod := base
	for i, sites := range chain {
		next, err := Instrument(mod, sites)
		if err != nil {
			return nil, fmt.Errorf("chain step %d: %w", i+1, err)
		}
		mod = next
	}
	return mod, nil
}

// widthOfSite picks the recorded width for a site instruction.
func widthOfSite(in *ir.Instr) ir.Width {
	switch in.Op {
	case ir.OpSext, ir.OpZext, ir.OpLoad, ir.OpFrame, ir.OpGlobal, ir.OpMalloc,
		ir.OpFuncAddr, ir.OpCall, ir.OpICall, ir.OpSpawn:
		return ir.W64
	}
	if in.W != 0 {
		return in.W
	}
	return ir.W64
}
