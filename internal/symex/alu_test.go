package symex

import (
	"math/rand"
	"testing"

	"execrecon/internal/expr"
	"execrecon/internal/ir"
	"execrecon/internal/vm"
)

// TestNativeALUMatchesVM cross-checks the native ALU of slice-pruned
// steps, which computes through expr's operator definitions, against
// the VM's independent EvalBin: every binary op binKinds maps, at every
// register width, over random operands and the edge values 0, 1,
// all-ones, the sign bit, its neighbour, and the shift amounts w-1, w
// and w+1. Native operands carry random high bits above the op's width,
// as a wider register feeding a narrow op does. Zero divisors are
// skipped: there the VM faults while expr follows SMT-LIB.
func TestNativeALUMatchesVM(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, w := range []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64} {
		wu := uint(w)
		m, sign := expr.Truncate(^uint64(0), wu), uint64(1)<<(wu-1)
		vals := []uint64{0, 1, m, sign, sign - 1,
			uint64(wu) - 1, uint64(wu), uint64(wu) + 1}
		for range 64 {
			vals = append(vals, rng.Uint64())
		}
		for op := range binKinds {
			if binKinds[op].kind == expr.KInvalid {
				continue
			}
			op := ir.Op(op)
			for _, x := range vals {
				for _, y := range vals {
					a, b := x&m, y&m
					want, ok := vm.EvalBin(op, w, a, b)
					if !ok {
						if isDiv(op) && b == 0 {
							continue
						}
						t.Fatalf("%s w%d %#x, %#x: the VM faulted", op, w, a, b)
					}
					// Operands reach the native ALU with whatever a
					// wider register held above bit w.
					hx, hy := rng.Uint64()&^m, rng.Uint64()&^m
					if got := evalBin(op, wu, a|hx, b|hy); got != want {
						t.Errorf("%s w%d %#x, %#x: native %#x, VM %#x", op, w, a, b, got, want)
					}
				}
			}
		}
	}
}

func isDiv(op ir.Op) bool {
	switch op {
	case ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem:
		return true
	}
	return false
}
