package bench

import (
	"fmt"
	"io"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/invariants"
	"execrecon/internal/vm"
)

// MimicRow is one §5.4 case-study result: invariant-based failure
// localization driven by an ER-reconstructed execution.
type MimicRow struct {
	App string
	// PassingRuns used for inference (paper: 4).
	PassingRuns int
	Points      int
	// ViolationsDirect uses the original failing input;
	// ViolationsER uses the ER-generated test case. MIMIC's
	// requirement is that the two localize the same root causes.
	ViolationsDirect []invariants.Violation
	ViolationsER     []invariants.Violation
	SameTop          bool
	RootCausePoint   string
	RootCauseRank    int // 1-based rank of the buggy function's point, 0 if absent
}

// RunMimic performs the §5.4 case study on the od and pr analogs:
// infer likely invariants from passing runs, reconstruct the failure
// with ER, and localize by violated invariants.
func RunMimic() ([]MimicRow, error) {
	cases := []struct {
		app  *apps.App
		root string // function containing the defect's effect
	}{
		{apps.CoreutilOd(), "format_word"},
		{apps.CoreutilPr(), "compute_columns"},
	}
	var rows []MimicRow
	for _, c := range cases {
		mod, err := c.app.Module()
		if err != nil {
			return nil, err
		}
		// Likely invariants from 4 passing executions.
		var passing [][]invariants.Obs
		for i := 0; i < 4; i++ {
			obs, res := invariants.Collect(mod, c.app.Benign(i), int64(i)+1)
			if res.Failure != nil {
				return nil, fmt.Errorf("bench: mimic passing run failed: %v", res.Failure)
			}
			passing = append(passing, obs)
		}
		set := invariants.Infer(passing)

		// Reconstruct the failure with ER.
		rep, err := core.Reproduce(ReproConfig(c.app, mod))
		if err != nil || !rep.Reproduced {
			return nil, fmt.Errorf("bench: mimic reconstruction failed for %s: %v", c.app.Name, err)
		}

		// Localize with the direct failing input and with the
		// ER-generated one.
		dObs, _ := invariants.Collect(mod, c.app.Failing(), c.app.Seed)
		eObs, _ := invariants.Collect(mod, rep.TestCase.Clone(), c.app.Seed)
		dv := set.Check(dObs)
		ev := set.Check(eObs)

		row := MimicRow{
			App:              c.app.Name,
			PassingRuns:      4,
			Points:           set.NumPoints(),
			ViolationsDirect: dv,
			ViolationsER:     ev,
			RootCausePoint:   c.root,
		}
		row.SameTop = sameTopViolations(dv, ev, 3)
		for i, v := range ev {
			if hasPrefix(v.Point, c.root+":") {
				row.RootCauseRank = i + 1
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// sameTopViolations compares the *program points* localized by the
// top-k violations: the ER-generated input may differ in concrete
// values (§5.2), but must blame the same places.
func sameTopViolations(a, b []invariants.Violation, k int) bool {
	points := func(vs []invariants.Violation) map[string]bool {
		out := map[string]bool{}
		for i, v := range vs {
			if i >= k {
				break
			}
			out[v.Point] = true
		}
		return out
	}
	pa, pb := points(a), points(b)
	if len(pa) != len(pb) {
		return false
	}
	for p := range pa {
		if !pb[p] {
			return false
		}
	}
	return true
}

// RenderMimic prints the case-study outcome.
func RenderMimic(w io.Writer, rows []MimicRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%s: %d invariant points from %d passing runs\n", r.App, r.Points, r.PassingRuns)
		fmt.Fprintf(w, "  ER-reconstructed run matches direct failing run on top violations: %v\n", r.SameTop)
		fmt.Fprintf(w, "  root-cause function %q ranked #%d among violations\n", r.RootCausePoint, r.RootCauseRank)
		fmt.Fprintln(w, "  top violations (ER-reconstructed execution):")
		for i, v := range r.ViolationsER {
			if i >= 5 {
				break
			}
			fmt.Fprintf(w, "    %d. %-24s %s (support %d)\n", i+1, v.Point, v.Desc, v.Confidence)
		}
	}
	fmt.Fprintln(w, "\n(paper: Daikon identifies the same root causes from the ER-reconstructed")
	fmt.Fprintln(w, " execution as from the failing test case directly)")
}

// MultiThreadedRow summarizes the §3.4 reconstruction check: every
// multithreaded bug reconstructs under its recorded coarse
// interleaving.
type MultiThreadedRow struct {
	App        string
	Threads    int
	Chunks     int64
	Reproduced bool
	Verified   bool
	Occur      int
}

// RunMT re-verifies the multithreaded reconstructions and reports
// schedule statistics.
func RunMT() ([]MultiThreadedRow, error) {
	var rows []MultiThreadedRow
	for _, a := range apps.All() {
		if !a.MT {
			continue
		}
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		res := vm.New(mod, vm.Config{Input: a.Failing(), Seed: a.Seed}).Run("main")
		rep, err := core.Reproduce(ReproConfig(a, mod))
		row := MultiThreadedRow{
			App:     a.Name,
			Threads: res.Stats.Threads,
			Chunks:  res.Stats.Chunks,
		}
		if err == nil {
			row.Reproduced = rep.Reproduced
			row.Verified = rep.Verified
			row.Occur = rep.Occurrences
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderMT prints the multithreaded summary.
func RenderMT(w io.Writer, rows []MultiThreadedRow) {
	header := []string{"Application", "Threads", "Sched chunks", "Reproduced", "Verified", "#Occur"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%d", r.Chunks),
			fmt.Sprintf("%v", r.Reproduced),
			fmt.Sprintf("%v", r.Verified),
			fmt.Sprintf("%d", r.Occur),
		})
	}
	table(w, header, out)
}
