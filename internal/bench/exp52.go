package bench

import (
	"fmt"
	"io"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/vm"
)

// RandomRow compares key data value selection with the §5.2 random
// recording baseline on one application.
type RandomRow struct {
	App           string
	NeedsData     bool // needed ≥1 recording iteration at all
	KeyOccur      int
	KeyOK         bool
	RandomOccur   int
	RandomOK      bool
	RandomAborted string
}

// RunRandomBaseline reproduces the §5.2 comparison: ER with key data
// value selection versus ER with random recording at the same byte
// budget *and* the same number of failure occurrences, on every app
// that requires data recording.
func RunRandomBaseline(maxIter int) []RandomRow {
	var rows []RandomRow
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			continue
		}
		row := RandomRow{App: a.Name}
		rep, err := core.Reproduce(ReproConfig(a, mod))
		row.KeyOK = err == nil && rep.Reproduced && rep.Verified
		row.KeyOccur = rep.Occurrences
		row.NeedsData = rep.Occurrences > 1
		if !row.NeedsData {
			rows = append(rows, row)
			continue
		}
		iters := rep.Occurrences
		if maxIter > 0 {
			iters = maxIter
		}
		rcfg := ReproConfig(a, mod)
		rcfg.MaxIterations = iters
		rcfg.RandomSelection = true
		rcfg.RandomSeed = 0xC0FFEE
		rrep, rerr := core.Reproduce(rcfg)
		row.RandomOK = rerr == nil && rrep.Reproduced && rrep.Verified
		row.RandomOccur = rrep.Occurrences
		if rerr != nil {
			row.RandomAborted = rerr.Error()
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderRandomBaseline prints the comparison.
func RenderRandomBaseline(w io.Writer, rows []RandomRow) {
	header := []string{"Application", "Needs data", "Key-selection", "Random recording"}
	var out [][]string
	keyOK, rndOK, needs := 0, 0, 0
	for _, r := range rows {
		nd := "no"
		if r.NeedsData {
			nd = "yes"
			needs++
		}
		ks := fmt.Sprintf("reproduced in %d occ", r.KeyOccur)
		if !r.KeyOK {
			ks = "failed"
		} else {
			keyOK++
		}
		rs := "n/a"
		if r.NeedsData {
			if r.RandomOK {
				rs = fmt.Sprintf("reproduced in %d occ", r.RandomOccur)
				rndOK++
			} else {
				rs = fmt.Sprintf("NOT reproduced (%d occ tried)", r.RandomOccur)
			}
		}
		out = append(out, []string{r.App, nd, ks, rs})
	}
	table(w, header, out)
	fmt.Fprintf(w, "\nOf %d bugs needing data recording (same occurrence budget as key selection):\n", needs)
	fmt.Fprintf(w, "  key selection reproduced %d, random recording reproduced %d\n", keyOK, rndOK)
	fmt.Fprintf(w, "(paper: random recording reproduced 1 of the 11 data-requiring failures)\n")
}

// AccuracyRow is one §5.2 accuracy check: the generated input may
// differ from the original, but must drive the identical control flow
// and failure.
type AccuracyRow struct {
	App            string
	InputsDiffer   bool
	SameFailure    bool
	SameBranchHist bool
	OrigInputs     int
	GenInputs      int
}

// RunAccuracy reproduces each bug, then compares the generated test
// case with the original failing input: same failure signature, same
// branch history, inputs possibly different.
func RunAccuracy() ([]AccuracyRow, error) {
	var rows []AccuracyRow
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		rep, err := core.Reproduce(ReproConfig(a, mod))
		if err != nil || !rep.Reproduced {
			rows = append(rows, AccuracyRow{App: a.Name})
			continue
		}
		orig := a.Failing()
		row := AccuracyRow{
			App:        a.Name,
			OrigInputs: orig.TotalValues(),
			GenInputs:  rep.TestCase.TotalValues(),
		}
		row.InputsDiffer = !sameWorkload(orig, rep.TestCase)
		r1 := vm.New(mod, vm.Config{Input: orig.Clone(), Seed: a.Seed}).Run("main")
		r2 := vm.New(mod, vm.Config{Input: rep.TestCase.Clone(), Seed: a.Seed}).Run("main")
		row.SameFailure = r1.Failure.SameSignature(r2.Failure)
		row.SameBranchHist = r1.Stats.Branches == r2.Stats.Branches &&
			r1.Stats.Instrs == r2.Stats.Instrs
		rows = append(rows, row)
	}
	return rows, nil
}

func sameWorkload(a, b *vm.Workload) bool {
	if len(a.Streams) != len(b.Streams) {
		return false
	}
	for k, va := range a.Streams {
		vb, ok := b.Streams[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// RenderAccuracy prints the accuracy table.
func RenderAccuracy(w io.Writer, rows []AccuracyRow) {
	header := []string{"Application", "Inputs differ", "Same failure", "Same CF length"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%v (%d vs %d values)", r.InputsDiffer, r.OrigInputs, r.GenInputs),
			fmt.Sprintf("%v", r.SameFailure),
			fmt.Sprintf("%v", r.SameBranchHist),
		})
	}
	table(w, header, out)
}
