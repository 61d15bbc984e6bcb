// Package dataflow is the static-analysis framework over the register
// IR: control-flow graphs with reachability, interprocedural
// input-taint propagation through a conservative alias partition, and
// the backward failure slice that prunes shepherded symbolic execution
// (internal/symex). internal/keyselect checks instrumentation
// placements against the CFG. Two codegen-invariant checks (lint.go)
// run on the CFG at the end of every minc compilation.
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

// CFG is the control-flow graph of one function, with reachability
// and reverse postorder.
type CFG struct {
	F *ir.Func

	// Preds lists each block's reachable predecessors by block index.
	Preds [][]int

	// Reachable marks blocks reachable from the entry block 0.
	Reachable []bool

	// RPO is the reverse postorder of reachable blocks (entry first).
	RPO []int
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

// BuildCFG constructs the CFG of f.
func BuildCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:         f,
		Preds:     make([][]int, n),
		Reachable: make([]bool, n),
	}
	succs := make([][]int, n)
	for i, b := range f.Blocks {
		succs[i] = blockSuccs(b)
	}
	// Reachability + postorder via iterative DFS from the entry.
	type frame struct{ blk, next int }
	var post []int
	stack := []frame{{0, 0}}
	c.Reachable[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(succs[top.blk]) {
			s := succs[top.blk][top.next]
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
	// Reachable predecessors.
	for _, b := range c.RPO {
		for _, s := range succs[b] {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	return c
}

// WriteDOT renders the CFG as Graphviz DOT: edges are control flow
// (conditional-branch edges labeled T/F) and unreachable blocks are
// greyed out. Used by `ertrace -dump-cfg` for debugging slices.
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
	_, err := fmt.Fprintln(w, "}")
	return err
}
