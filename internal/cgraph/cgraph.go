// Package cgraph builds and analyzes the constraint graph of §3.2 —
// the dependency structure among values, operations, and symbolic
// memory states gathered by shepherded symbolic execution. Its job is
// to locate the two patterns that dominate constraint-solving cost
// (§3.3.1): the longest chain of symbolic writes, and the write chain
// updating the largest symbolic memory object. The symbolic values
// those chains read and write form the bottleneck set handed to key
// data value selection.
package cgraph

import (
	"sort"

	"execrecon/internal/expr"
)

// Object describes one memory object's final symbolic array state.
type Object struct {
	Label string
	Size  uint64
	Arr   *expr.Expr
}

// Chain is a symbolic write chain over one object.
type Chain struct {
	Object Object
	// Stores lists the KStore nodes from newest to oldest.
	Stores []*expr.Expr
	// SymWrites counts stores whose index or value is symbolic.
	SymWrites int
}

// Graph is the analyzed constraint graph.
type Graph struct {
	Constraints []*expr.Expr
	Objects     []Object
	Chains      []Chain

	nodes int
}

// Build constructs the graph from a path constraint and the final
// object states.
func Build(pc []*expr.Expr, objects []Object) *Graph {
	g := &Graph{Constraints: pc, Objects: objects}
	g.walk(func(*expr.Expr) { g.nodes++ })
	for _, o := range objects {
		g.Chains = append(g.Chains, buildChain(o))
	}
	return g
}

// walk calls fn once for every distinct node of the graph: one
// traversal over the path constraint and every object's array.
func (g *Graph) walk(fn func(*expr.Expr)) {
	roots := make([]*expr.Expr, 0, len(g.Constraints)+len(g.Objects))
	roots = append(roots, g.Constraints...)
	for _, o := range g.Objects {
		if o.Arr != nil {
			roots = append(roots, o.Arr)
		}
	}
	expr.WalkAll(roots, fn)
}

func buildChain(o Object) Chain {
	ch := Chain{Object: o}
	cur := o.Arr
	for cur != nil && cur.Kind == expr.KStore {
		ch.Stores = append(ch.Stores, cur)
		if !cur.Args[1].IsConst() || !cur.Args[2].IsConst() {
			ch.SymWrites++
		}
		cur = cur.Args[0]
	}
	return ch
}

// NumNodes returns the number of distinct graph nodes (§5.3 reports
// the largest graph observed).
func (g *Graph) NumNodes() int { return g.nodes }

// LongestWriteChain returns the chain with the most symbolic writes,
// or nil if no object was written symbolically.
func (g *Graph) LongestWriteChain() *Chain {
	var best *Chain
	for i := range g.Chains {
		c := &g.Chains[i]
		if c.SymWrites == 0 {
			continue
		}
		if best == nil || c.SymWrites > best.SymWrites {
			best = c
		}
	}
	return best
}

// LargestObjectChain returns the chain updating the largest object
// among those with symbolic writes, or nil.
func (g *Graph) LargestObjectChain() *Chain {
	var best *Chain
	for i := range g.Chains {
		c := &g.Chains[i]
		if c.SymWrites == 0 {
			continue
		}
		if best == nil || c.Object.Size > best.Object.Size {
			best = c
		}
	}
	return best
}

// BottleneckSet returns the symbolic values read and written by the
// operations of the longest write chain and the largest-object chain
// (§3.3.2) — the store indices and stored values that are not
// constant. The two chains may coincide.
func (g *Graph) BottleneckSet() []*expr.Expr {
	chains := map[*Chain]bool{}
	if c := g.LongestWriteChain(); c != nil {
		chains[c] = true
	}
	if c := g.LargestObjectChain(); c != nil {
		chains[c] = true
	}
	seen := make(map[*expr.Expr]bool)
	var out []*expr.Expr
	add := func(e *expr.Expr) {
		if e == nil || e.IsConst() || seen[e] {
			return
		}
		seen[e] = true
		out = append(out, e)
	}
	for c := range chains {
		for _, st := range c.Stores {
			add(st.Args[1]) // index
			add(st.Args[2]) // stored value
		}
	}
	// Deterministic order for reproducible selection.
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ReadIndexSet returns the symbolic index expressions of Select
// operations in the constraint graph — the fallback bottleneck when a
// stall precedes any symbolic write chain (accesses to large symbolic
// memory objects are the second complexity source of §3.3.1).
func (g *Graph) ReadIndexSet() []*expr.Expr {
	seen := make(map[*expr.Expr]bool)
	var out []*expr.Expr
	g.walk(func(n *expr.Expr) {
		if n.Kind == expr.KSelect {
			idx := n.Args[1]
			if !idx.IsConst() && !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// SymbolicNodes returns every non-constant node in the graph, used by
// the random-recording baseline of §5.2.
func (g *Graph) SymbolicNodes() []*expr.Expr {
	var out []*expr.Expr
	g.walk(func(n *expr.Expr) {
		if !n.IsConst() && !n.IsArray() {
			out = append(out, n)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}
