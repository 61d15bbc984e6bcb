package expr

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteSMTLIB renders a constraint set as an SMT-LIB 2 script
// (QF_ABV), so path constraints gathered by shepherded symbolic
// execution can be cross-checked with external solvers (Z3, cvc5,
// STP). Shared subterms are emitted as let-free named definitions via
// define-fun to keep the output linear in DAG size.
func WriteSMTLIB(w io.Writer, cs []*Expr) error {
	p := &smtPrinter{
		w:     w,
		names: make(map[*Expr]string),
	}
	fmt.Fprintln(w, "(set-logic QF_ABV)")

	// Declare free variables, deterministically ordered.
	type decl struct {
		name string
		sort string
	}
	seen := make(map[string]bool)
	var decls []decl
	WalkAll(cs, func(n *Expr) {
		switch n.Kind {
		case KVar:
			if !seen[n.Name] {
				seen[n.Name] = true
				decls = append(decls, decl{smtSym(n.Name), fmt.Sprintf("(_ BitVec %d)", n.Width)})
			}
		case KArrayVar:
			if !seen[n.Name] {
				seen[n.Name] = true
				decls = append(decls, decl{smtSym(n.Name),
					fmt.Sprintf("(Array (_ BitVec %d) (_ BitVec %d))", n.IdxWidth, n.Width)})
			}
		}
	})
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	for _, d := range decls {
		fmt.Fprintf(w, "(declare-fun %s () %s)\n", d.name, d.sort)
	}

	for _, c := range cs {
		if !c.IsBool() {
			return fmt.Errorf("expr: non-boolean constraint in SMT-LIB export")
		}
		s, err := p.term(c)
		if err != nil {
			return err
		}
		// Booleans are 1-bit vectors; assert equality with #b1.
		fmt.Fprintf(w, "(assert (= %s #b1))\n", s)
	}
	fmt.Fprintln(w, "(check-sat)")
	fmt.Fprintln(w, "(get-model)")
	return p.err
}

type smtPrinter struct {
	w     io.Writer
	names map[*Expr]string
	next  int
	err   error
}

// smtSym sanitizes a variable name into an SMT-LIB symbol.
func smtSym(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return "v_" + b.String()
}

// term returns an SMT-LIB term for e, introducing a define-fun for
// any node with more than trivial size so the output stays compact.
func (p *smtPrinter) term(e *Expr) (string, error) {
	if s, ok := p.names[e]; ok {
		return s, nil
	}
	s, err := p.build(e)
	if err != nil {
		return "", err
	}
	// Name interior nodes so sharing is preserved.
	if len(e.Args) > 0 {
		p.next++
		name := fmt.Sprintf("t%d", p.next)
		var sortStr string
		if e.IsArray() {
			sortStr = fmt.Sprintf("(Array (_ BitVec %d) (_ BitVec %d))", e.IdxWidth, e.Width)
		} else {
			sortStr = fmt.Sprintf("(_ BitVec %d)", e.Width)
		}
		fmt.Fprintf(p.w, "(define-fun %s () %s %s)\n", name, sortStr, s)
		p.names[e] = name
		return name, nil
	}
	p.names[e] = s
	return s, nil
}

func (p *smtPrinter) build(e *Expr) (string, error) {
	bin := func(op string) (string, error) {
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		b, err := p.term(e.Args[1])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %s %s)", op, a, b), nil
	}
	cmp := func(op string) (string, error) {
		s, err := bin(op)
		if err != nil {
			return "", err
		}
		// 1-bit booleans: wrap the Bool result back into BitVec 1.
		return fmt.Sprintf("(ite %s #b1 #b0)", s), nil
	}
	switch e.Kind {
	case KConst:
		return fmt.Sprintf("(_ bv%d %d)", e.Val, e.Width), nil
	case KVar, KArrayVar:
		return smtSym(e.Name), nil
	case KAdd:
		return bin("bvadd")
	case KSub:
		return bin("bvsub")
	case KMul:
		return bin("bvmul")
	case KUDiv:
		return bin("bvudiv")
	case KURem:
		return bin("bvurem")
	case KSDiv:
		return bin("bvsdiv")
	case KSRem:
		return bin("bvsrem")
	case KAnd:
		return bin("bvand")
	case KOr:
		return bin("bvor")
	case KXor:
		return bin("bvxor")
	case KShl:
		return bin("bvshl")
	case KLShr:
		return bin("bvlshr")
	case KAShr:
		return bin("bvashr")
	case KNot:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(bvnot %s)", a), nil
	case KNeg:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(bvneg %s)", a), nil
	case KEq:
		return cmp("=")
	case KUlt:
		return cmp("bvult")
	case KUle:
		return cmp("bvule")
	case KSlt:
		return cmp("bvslt")
	case KSle:
		return cmp("bvsle")
	case KIte:
		c, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		a, err := p.term(e.Args[1])
		if err != nil {
			return "", err
		}
		b, err := p.term(e.Args[2])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(ite (= %s #b1) %s %s)", c, a, b), nil
	case KConcat:
		return bin("concat")
	case KExtract:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("((_ extract %d %d) %s)", e.Lo+e.Width-1, e.Lo, a), nil
	case KZExt:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("((_ zero_extend %d) %s)", e.Width-e.Args[0].Width, a), nil
	case KSExt:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("((_ sign_extend %d) %s)", e.Width-e.Args[0].Width, a), nil
	case KSelect:
		return bin("select")
	case KStore:
		a, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		i, err := p.term(e.Args[1])
		if err != nil {
			return "", err
		}
		v, err := p.term(e.Args[2])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(store %s %s %s)", a, i, v), nil
	case KConstArray:
		v, err := p.term(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("((as const (Array (_ BitVec %d) (_ BitVec %d))) %s)",
			e.IdxWidth, e.Width, v), nil
	}
	return "", fmt.Errorf("expr: cannot export %s to SMT-LIB", e.Kind)
}
