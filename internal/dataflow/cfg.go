// Package dataflow is the static-analysis framework over the register
// IR: control-flow graphs with dominator trees, reaching definitions
// and def-use chains, liveness, interprocedural input-taint
// propagation through a conservative alias partition, and the backward
// failure slice that prunes shepherded symbolic execution
// (internal/symex) and informs key data value selection
// (internal/keyselect). A lint pass suite (lint.go) reuses the same
// analyses to catch latent IR-level bugs at the end of minc
// compilation.
//
// Everything here is purely static: no trace, no reoccurrence, no
// solver. That is the point — most instructions of a failing trace
// provably cannot influence the failure condition, and that fact is
// derivable from the IR before the first reoccurrence arrives.
package dataflow

import (
	"fmt"
	"io"

	"execrecon/internal/ir"
)

// CFG is the control-flow graph of one function, with reachability,
// reverse postorder, and the dominator tree (Cooper-Harvey-Kennedy
// iterative algorithm).
type CFG struct {
	F *ir.Func

	// Succs and Preds are block-index adjacency lists. Preds lists
	// only reachable predecessors.
	Succs [][]int
	Preds [][]int

	// Reachable marks blocks reachable from the entry block 0.
	Reachable []bool

	// RPO is the reverse postorder of reachable blocks (entry first).
	RPO []int

	// IDom is the immediate dominator of each reachable block; the
	// entry's IDom is itself, an unreachable block's is -1.
	IDom []int

	// DomChildren is the dominator tree's child lists.
	DomChildren [][]int

	rpoNum []int // block -> position in RPO (-1 if unreachable)
	preIn  []int // dominator-tree preorder interval start
	preOut []int // dominator-tree preorder interval end
}

// blockSuccs returns the successor block indices of b's terminator.
func blockSuccs(b *ir.Block) []int {
	t := b.Term()
	switch t.Op {
	case ir.OpBr:
		return []int{t.Blk}
	case ir.OpCondBr:
		if t.Blk == t.Blk2 {
			return []int{t.Blk}
		}
		return []int{t.Blk, t.Blk2}
	}
	return nil // ret, abort
}

// BuildCFG constructs the CFG and dominator tree of f.
func BuildCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:           f,
		Succs:       make([][]int, n),
		Preds:       make([][]int, n),
		Reachable:   make([]bool, n),
		IDom:        make([]int, n),
		DomChildren: make([][]int, n),
		rpoNum:      make([]int, n),
		preIn:       make([]int, n),
		preOut:      make([]int, n),
	}
	for i, b := range f.Blocks {
		c.Succs[i] = blockSuccs(b)
		c.IDom[i] = -1
		c.rpoNum[i] = -1
	}
	// Reachability + postorder via iterative DFS from the entry.
	type frame struct{ blk, next int }
	var post []int
	stack := []frame{{0, 0}}
	c.Reachable[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(c.Succs[top.blk]) {
			s := c.Succs[top.blk][top.next]
			top.next++
			if !c.Reachable[s] {
				c.Reachable[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, top.blk)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
	for i, b := range c.RPO {
		c.rpoNum[b] = i
	}
	// Reachable predecessors.
	for _, b := range c.RPO {
		for _, s := range c.Succs[b] {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	// Iterative dominators (Cooper, Harvey, Kennedy: "A Simple, Fast
	// Dominance Algorithm").
	intersect := func(a, b int) int {
		for a != b {
			for c.rpoNum[a] > c.rpoNum[b] {
				a = c.IDom[a]
			}
			for c.rpoNum[b] > c.rpoNum[a] {
				b = c.IDom[b]
			}
		}
		return a
	}
	c.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			newIdom := -1
			for _, p := range c.Preds[b] {
				if c.IDom[p] < 0 {
					continue // not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && c.IDom[b] != newIdom {
				c.IDom[b] = newIdom
				changed = true
			}
		}
	}
	for _, b := range c.RPO[1:] {
		c.DomChildren[c.IDom[b]] = append(c.DomChildren[c.IDom[b]], b)
	}
	// Preorder intervals for O(1) Dominates queries.
	clock := 0
	var number func(b int)
	number = func(b int) {
		clock++
		c.preIn[b] = clock
		for _, ch := range c.DomChildren[b] {
			number(ch)
		}
		c.preOut[b] = clock
	}
	number(0)
	return c
}

// Dominates reports whether block a dominates block b. Unreachable
// blocks dominate nothing and are dominated by nothing.
func (c *CFG) Dominates(a, b int) bool {
	if !c.Reachable[a] || !c.Reachable[b] {
		return false
	}
	return c.preIn[a] <= c.preIn[b] && c.preOut[b] <= c.preOut[a]
}

// WriteDOT renders the CFG as Graphviz DOT: solid edges are control
// flow (conditional-branch edges labeled T/F), dashed edges are the
// dominator tree, and unreachable blocks are greyed out. Used by
// `ertrace -dump-cfg` for debugging slices.
func (c *CFG) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n", c.F.Name); err != nil {
		return err
	}
	fmt.Fprintf(w, "  label=%q; labelloc=t;\n", c.F.Name)
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for i, b := range c.F.Blocks {
		style := ""
		if !c.Reachable[i] {
			style = ", style=dashed, color=gray"
		}
		fmt.Fprintf(w, "  b%d [label=\"b%d (%d instrs)\\n%s\"%s];\n",
			i, i, len(b.Instrs), b.Term(), style)
	}
	for i := range c.F.Blocks {
		t := c.F.Blocks[i].Term()
		switch t.Op {
		case ir.OpBr:
			fmt.Fprintf(w, "  b%d -> b%d;\n", i, t.Blk)
		case ir.OpCondBr:
			fmt.Fprintf(w, "  b%d -> b%d [label=\"T\"];\n", i, t.Blk)
			fmt.Fprintf(w, "  b%d -> b%d [label=\"F\"];\n", i, t.Blk2)
		}
	}
	for _, b := range c.RPO[1:] {
		fmt.Fprintf(w, "  b%d -> b%d [style=dashed, color=blue, constraint=false];\n",
			c.IDom[b], b)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
