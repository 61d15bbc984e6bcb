package bench

import (
	"fmt"
	"io"

	"execrecon/internal/minc"
	"execrecon/internal/pt"
	"execrecon/internal/rept"
	"execrecon/internal/vm"
)

// ReptRow is one point of the REPT accuracy-vs-trace-length
// comparison (§2.3/§5.2: beyond ~100 K instructions 15-60% of values
// are incorrectly recovered).
type ReptRow struct {
	Iterations    int
	TraceLen      int
	Writes        int
	CorrectPct    float64
	IncorrectPct  float64
	UnknownPct    float64
	OldestPct     float64 // correct fraction among the oldest 1000 writes
	RecoverablePc float64 // correct / (correct + incorrect): trustworthiness
}

// reptProgram is a single-frame compute kernel: a rolling hash over a
// table with data-dependent updates. Long traces overwrite registers
// and memory many times, destroying the information reverse recovery
// needs.
const reptProgram = `
int tbl[64];
func main() int {
	int n = input32("n");
	if (n < 0 || n > 2000000) { return 0; }
	int x = input32("x0");  // unknown seed: not forward-recoverable
	int i = 0;
	while (i < n) {
		int d = tbl[(i * 7) & 63];   // load: REPT guesses from the dump
		x = x + d + 1;               // invertible only when d is known
		tbl[(i * 13) & 63] = x;      // stores clobber older dump state
		if ((x & 1) == 1) { x = x + 2; }
		i = i + 1;
	}
	int z = x & 0;
	return 100 / z; // divide-by-zero failure ends the trace
}`

// RunReptAccuracy measures REPT-style recovery accuracy as the trace
// length grows.
func RunReptAccuracy(lengths []int) ([]ReptRow, error) {
	if len(lengths) == 0 {
		lengths = []int{50, 200, 1000, 5000, 20000, 100000}
	}
	mod, err := minc.Compile("rept-kernel", reptProgram)
	if err != nil {
		return nil, err
	}
	var rows []ReptRow
	ring := pt.NewRing(pt.DefaultRingSize) // reset per length, not reallocated
	for _, n := range lengths {
		ring.Reset()
		enc := pt.NewEncoder(ring)
		var truth []uint64
		cfg := vm.Config{
			Input:  vm.NewWorkload().Add("n", uint64(n)).Add("x0", 9731),
			Tracer: enc,
			OnRegWrite: func(fn string, id int32, dst int, val uint64) {
				if fn == "main" {
					truth = append(truth, val)
				}
			},
		}
		res := vm.New(mod, cfg).Run("main")
		if res.Failure == nil || res.Dump == nil {
			return nil, fmt.Errorf("bench: rept kernel did not fail")
		}
		enc.Finish()
		tr, err := pt.Decode(ring)
		if err != nil {
			return nil, err
		}
		rec, err := rept.Recover(mod, "main", tr, res.Dump, res.Failure.InstrID, truth)
		if err != nil {
			return nil, err
		}
		row := ReptRow{
			Iterations:   n,
			TraceLen:     rec.TraceLen,
			Writes:       rec.Writes,
			CorrectPct:   100 * rec.CorrectFrac(),
			IncorrectPct: 100 * rec.IncorrectFrac(),
		}
		row.UnknownPct = 100 - row.CorrectPct - row.IncorrectPct
		if rec.WritesOldest > 0 {
			row.OldestPct = 100 * float64(rec.CorrectOldest) / float64(rec.WritesOldest)
		}
		if rec.Correct+rec.Incorrect > 0 {
			row.RecoverablePc = 100 * float64(rec.Correct) / float64(rec.Correct+rec.Incorrect)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRept prints the accuracy table.
func RenderRept(w io.Writer, rows []ReptRow) {
	header := []string{"Loop iters", "Trace instrs", "Reg writes", "Correct", "Incorrect", "Oldest-1k correct"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Iterations),
			fmt.Sprintf("%d", r.TraceLen),
			fmt.Sprintf("%d", r.Writes),
			fmt.Sprintf("%.1f%%", r.CorrectPct),
			fmt.Sprintf("%.1f%%", r.IncorrectPct),
			fmt.Sprintf("%.1f%%", r.OldestPct),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w, "\n(paper: REPT mis-recovers 15-60% of values beyond ~100K instructions,")
	fmt.Fprintln(w, " and recovered-but-wrong values are indistinguishable from correct ones)")
}
