package symex_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"execrecon/internal/dataflow"
	"execrecon/internal/keyselect"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// TestSliceDifferential is the randomized soundness gate for
// slice-pruned shepherding: generate arbitrary (valid-by-construction)
// minc programs mixing input-tainted computation with untainted noise,
// record one failing run, shepherd it with and without the static
// failure slice, and require bit-identical outcomes — status, path
// constraint text, per-site dynamic stats, instruction counts, and
// (on stalls) the recording set key data value selection derives from
// each result. Any divergence is a slice soundness bug by definition:
// the slice may only change which instructions go through the
// symbolic machinery, never what the analysis concludes.
func TestSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	var failing, stalled, pruned int
	for trial := 0; trial < trials; trial++ {
		src, w := genProgram(rng)
		mod, tr, res := recordRun(t, src, w, 1)
		if res.Failure == nil {
			continue // benign run; nothing to reconstruct
		}
		failing++
		// Half the trials use a tiny budget to exercise the stall /
		// key-selection path; half run to completion.
		opts := symex.Options{}
		if trial%2 == 1 {
			opts.QueryBudget = 50 + int64(rng.Intn(400))
		}
		full := symex.New(mod, tr, res.Failure, opts).Run("main")
		sopts := opts
		an := dataflow.Analyze(mod)
		sopts.Slice = an
		sliced := symex.New(mod, tr, res.Failure, sopts).Run("main")

		ctx := func() string { return fmt.Sprintf("trial %d\n%s\nworkload: %v", trial, src, w.Streams) }
		if full.Status != sliced.Status {
			t.Fatalf("%s\nstatus: full=%v sliced=%v (sliced err: %v)", ctx(), full.Status, sliced.Status, sliced.Err)
		}
		if full.Status != symex.StatusCompleted && full.Status != symex.StatusStalled {
			continue // e.g. budget exhausted mid-run; parity already checked
		}
		fpc, spc := pcString(t, full), pcString(t, sliced)
		if fpc != spc {
			t.Fatalf("%s\npath constraints differ:\n--- full ---\n%s\n--- sliced ---\n%s", ctx(), fpc, spc)
		}
		checkSiteParity(t, ctx, an, full, sliced)
		if full.Stats.Instrs != sliced.Stats.Instrs {
			t.Fatalf("%s\ninstruction counts differ: %d vs %d", ctx(), full.Stats.Instrs, sliced.Stats.Instrs)
		}
		if sliced.Stats.ConcSteps > 0 {
			pruned++
		}
		if full.Status == symex.StatusStalled {
			stalled++
			// Recording-set parity: selection over the full result
			// and over the sliced result must pick the same sites.
			fsel, ferr := keyselect.Select(full)
			ssel, serr := keyselect.Select(sliced)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("%s\nselection errors differ: full=%v sliced=%v", ctx(), ferr, serr)
			}
			if ferr != nil {
				continue
			}
			fsites := fmt.Sprintf("%v", fsel.Sites)
			ssites := fmt.Sprintf("%v", ssel.Sites)
			if fsites != ssites {
				t.Fatalf("%s\nrecording sets differ:\n  full:   %s\n  sliced: %s", ctx(), fsites, ssites)
			}
			if fsel.TotalCostBytes != ssel.TotalCostBytes {
				t.Fatalf("%s\nrecording costs differ: %d vs %d", ctx(), fsel.TotalCostBytes, ssel.TotalCostBytes)
			}
		}
	}
	// The generator must actually exercise the interesting paths;
	// these floors catch a silently degenerate corpus.
	if failing < trials/4 {
		t.Fatalf("only %d/%d generated programs failed; generator degenerate", failing, trials)
	}
	if pruned == 0 {
		t.Fatal("no trial pruned a single instruction; slice never engaged")
	}
	t.Logf("%d trials: %d failing, %d stalled, %d with native pruning", trials, failing, stalled, pruned)
}

// checkSiteParity enforces the candidate-site contract between a full
// and a slice-pruned shepherding of the same trace: every site the
// sliced run observed must appear in the full run with identical
// dynamic stats, and any site only the full run observed must belong
// to an instruction the slice pruned (a dead definition whose value
// flows into no constraint — e.g. an unused input mov — which key
// selection can therefore never pick).
func checkSiteParity(t *testing.T, ctx func() string, an *dataflow.Analysis, full, sliced *symex.Result) {
	t.Helper()
	for k, sst := range sliced.Sites {
		fst, ok := full.Sites[k]
		if !ok {
			t.Fatalf("%s\nsliced run observed site %s#%d absent from the full run", ctx(), k.Func, k.InstrID)
		}
		if fst.Width != sst.Width || fst.Count != sst.Count {
			t.Fatalf("%s\nsite %s#%d stats differ: full={w%d n%d} sliced={w%d n%d}",
				ctx(), k.Func, k.InstrID, fst.Width, fst.Count, sst.Width, sst.Count)
		}
	}
	for k := range full.Sites {
		if _, ok := sliced.Sites[k]; ok {
			continue
		}
		if m, found := modeOf(an, k); !found || m == dataflow.ModeSym {
			t.Fatalf("%s\nfull-only site %s#%d is in-slice (mode sym); the sliced run lost a live candidate",
				ctx(), k.Func, k.InstrID)
		}
	}
}

// modeOf looks up the slice mode of a site's defining instruction.
func modeOf(an *dataflow.Analysis, k symex.SiteKey) (dataflow.Mode, bool) {
	fa := an.Func(k.Func)
	if fa == nil {
		return 0, false
	}
	for bi := range fa.F.Blocks {
		for ii := range fa.F.Blocks[bi].Instrs {
			if fa.F.Blocks[bi].Instrs[ii].ID == k.InstrID {
				return fa.Mode(bi, ii), true
			}
		}
	}
	return 0, false
}

// genProgram builds one random valid minc program plus a workload for
// it. Programs mix:
//   - tainted arithmetic chains rooted at input32 reads,
//   - untainted "noise" loops and locals (slice-prunable),
//   - global-array traffic on both tainted and untainted indices,
//   - helper-function calls,
//
// and end in an assertion over a tainted value whose truth depends on
// the drawn workload, so roughly half the runs fail.
func genProgram(rng *rand.Rand) (string, *vm.Workload) {
	ops := []string{"+", "-", "*", "&", "|", "^"}
	op := func() string { return ops[rng.Intn(len(ops))] }
	var sb strings.Builder
	sb.WriteString("int G[32];\n")
	sb.WriteString("func mix(int a, int b) int { return a " + op() + " b + 1; }\n")
	sb.WriteString("func main() int {\n")
	sb.WriteString("\tint x = input32(\"x\");\n")
	sb.WriteString("\tint y = input32(\"y\");\n")
	sb.WriteString("\tint t = x;\n") // tainted accumulator
	sb.WriteString("\tint n = 1;\n") // noise accumulator
	nstmt := 3 + rng.Intn(8)
	for i := 0; i < nstmt; i++ {
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&sb, "\tt = t %s %d;\n", op(), 1+rng.Intn(9))
		case 1:
			fmt.Fprintf(&sb, "\tt = mix(t, %d);\n", rng.Intn(16))
		case 2:
			fmt.Fprintf(&sb, "\tt = t %s y;\n", op())
		case 3: // noise loop: untainted, prunable
			fmt.Fprintf(&sb, "\tfor (int i = 0; i < %d; i = i + 1) { n = n %s i; }\n",
				8+rng.Intn(40), op())
		case 4: // untainted global traffic
			fmt.Fprintf(&sb, "\tG[%d] = n %s %d;\n", rng.Intn(32), op(), rng.Intn(7))
		case 5: // tainted store + reload through a masked index
			fmt.Fprintf(&sb, "\tG[t & 31] = t;\n\tt = G[t & 31] %s 1;\n", op())
		default:
			fmt.Fprintf(&sb, "\tn = mix(n, %d);\n", rng.Intn(8))
		}
	}
	sb.WriteString("\toutput(n);\n")
	// Assertion over the tainted value; the masked comparison keeps
	// the failure probability near a coin flip across workloads.
	fmt.Fprintf(&sb, "\tassert((t & 1) != %d, \"diff\");\n", rng.Intn(2))
	sb.WriteString("\treturn 0;\n}\n")

	w := vm.NewWorkload()
	w.Add("x", uint64(rng.Intn(1000)))
	w.Add("y", uint64(rng.Intn(1000)))
	return sb.String(), w
}
