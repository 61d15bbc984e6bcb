package ir

import (
	"fmt"
	"strings"
)

// Dump renders the module as readable text, for debugging and golden
// tests.
func (m *Module) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	for i, g := range m.Globals {
		fmt.Fprintf(&b, "global @%d %s [%d bytes]\n", i, g.Name, g.Size)
	}
	for _, f := range m.Funcs {
		fmt.Fprintf(&b, "\nfunc %s(params=%d regs=%d frame=%d)\n",
			f.Name, f.NParams, f.NumRegs, f.FrameSize)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "b%d:\n", blk.Index)
			for ii := range blk.Instrs {
				fmt.Fprintf(&b, "  %s\n", blk.Instrs[ii].String())
			}
		}
	}
	return b.String()
}

// FindInstrByID locates the instruction with the given ID, returning
// block and index or (-1, -1).
func (f *Func) FindInstrByID(id int32) (int, int) {
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			if b.Instrs[ii].ID == id {
				return bi, ii
			}
		}
	}
	return -1, -1
}

// Clone returns a deep copy of the module. Instrumentation transforms
// clone first so the deployed binary in one "production" iteration is
// never mutated while a trace from the previous iteration is being
// analyzed.
func (m *Module) Clone() *Module {
	nm := &Module{Name: m.Name}
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, Init: append([]byte(nil), g.Init...)}
		nm.Globals = append(nm.Globals, ng)
	}
	for _, f := range m.Funcs {
		nf := &Func{
			Name:      f.Name,
			NParams:   f.NParams,
			NumRegs:   f.NumRegs,
			FrameSize: f.FrameSize,
			nextID:    f.nextID,
		}
		for _, b := range f.Blocks {
			nb := &Block{Index: b.Index, Instrs: make([]Instr, len(b.Instrs))}
			copy(nb.Instrs, b.Instrs)
			for ii := range nb.Instrs {
				if nb.Instrs[ii].Args != nil {
					nb.Instrs[ii].Args = append([]Arg(nil), nb.Instrs[ii].Args...)
				}
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
		nm.Funcs = append(nm.Funcs, nf)
	}
	return nm
}
