package bench_test

import (
	"strings"
	"testing"

	"execrecon/internal/bench"
)

// TestTable1ShapeHolds regenerates Table 1 and checks the paper's
// headline claims: every bug reproduces with a verified test case;
// most bugs need more than one occurrence (11/13 in the paper); a few
// reproduce immediately (2/13 in the paper).
func TestTable1ShapeHolds(t *testing.T) {
	rows := bench.RunTable1(bench.Table1Options{})
	if len(rows) != 13 {
		t.Fatalf("rows: %d", len(rows))
	}
	multi, single := 0, 0
	for _, r := range rows {
		if !r.Reproduced || !r.Verified {
			t.Errorf("%s: not reproduced/verified: %s", r.App, r.FailReason)
			continue
		}
		if r.Occur > 1 {
			multi++
		} else {
			single++
		}
		if r.Instrs == 0 || r.SymbexTime == 0 {
			t.Errorf("%s: empty metrics %+v", r.App, r)
		}
	}
	if multi < 9 {
		t.Errorf("only %d bugs needed data recording; the iterative loop is not exercised", multi)
	}
	if single < 1 {
		t.Errorf("no single-occurrence reproduction; expected a couple (paper: 2/13)")
	}
	var sb strings.Builder
	bench.RenderTable1(&sb, rows)
	if !strings.Contains(sb.String(), "PHP-2012-2386") {
		t.Error("render missing rows")
	}
	bench.RenderOffline(&sb, rows)
}

func TestFig5Shape(t *testing.T) {
	r, err := bench.RunFig5("")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series: %d", len(r.Series))
	}
	// Each recording generation strictly and substantially cuts the
	// solver work of the same instructions. Steps are deterministic,
	// unlike wall time.
	for i := 1; i < len(r.Series); i++ {
		if !(r.Series[i-1].Steps > r.Series[i].Steps) {
			t.Errorf("iteration-%d data did not cut solver steps: %d vs %d",
				i, r.Series[i-1].Steps, r.Series[i].Steps)
		}
	}
	if r.Series[0].Steps < r.Series[2].Steps*5 {
		t.Errorf("step cut not substantial: %d -> %d", r.Series[0].Steps, r.Series[2].Steps)
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Errorf("no progress points for %q", s.Label)
		}
	}
	var sb strings.Builder
	bench.RenderFig5(&sb, r)
	if !strings.Contains(sb.String(), "series,instructions,milliseconds") {
		t.Error("render missing CSV header")
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := bench.RunFig6(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows: %d", len(rows))
	}
	var erSum, rrSum float64
	for _, r := range rows {
		if r.ER.MeanPct < 0 || r.ER.MeanPct > 10 {
			t.Errorf("%s: ER overhead %.2f%% outside production band", r.App, r.ER.MeanPct)
		}
		if r.RR.MeanPct < r.ER.MeanPct {
			t.Errorf("%s: rr (%.1f%%) below ER (%.2f%%)", r.App, r.RR.MeanPct, r.ER.MeanPct)
		}
		erSum += r.ER.MeanPct
		rrSum += r.RR.MeanPct
	}
	if avg := erSum / float64(len(rows)); avg > 2 {
		t.Errorf("ER average overhead %.2f%% too high (paper: 0.3%%)", avg)
	}
	if avg := rrSum / float64(len(rows)); avg < 10 {
		t.Errorf("rr average overhead %.1f%% too low (paper: 48%%)", avg)
	}
	var sb strings.Builder
	bench.RenderFig6(&sb, rows)
}

func TestReptDegradation(t *testing.T) {
	rows, err := bench.RunReptAccuracy([]int{50, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].CorrectPct <= rows[1].CorrectPct {
		t.Errorf("no degradation: %.1f%% vs %.1f%%", rows[0].CorrectPct, rows[1].CorrectPct)
	}
	if rows[1].IncorrectPct < 5 {
		t.Errorf("long trace should silently mis-recover values: %.1f%%", rows[1].IncorrectPct)
	}
	var sb strings.Builder
	bench.RenderRept(&sb, rows)
}

func TestMimicLocalizesRootCause(t *testing.T) {
	rows, err := bench.RunMimic()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.RootCauseRank != 1 {
			t.Errorf("%s: root cause ranked #%d, want #1", r.App, r.RootCauseRank)
		}
		if len(r.ViolationsER) == 0 {
			t.Errorf("%s: no violations from reconstructed run", r.App)
		}
	}
	var sb strings.Builder
	bench.RenderMimic(&sb, rows)
}

func TestAccuracyClaims(t *testing.T) {
	rows, err := bench.RunAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for _, r := range rows {
		if !r.SameFailure {
			t.Errorf("%s: generated input fails differently", r.App)
		}
		if !r.SameBranchHist {
			t.Errorf("%s: control flow differs", r.App)
		}
		if r.InputsDiffer {
			differ++
		}
	}
	if differ == 0 {
		t.Error("expected at least some generated inputs to differ from originals (§5.2)")
	}
}

func TestAblationMinimizationHelps(t *testing.T) {
	rows, err := bench.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for _, r := range rows {
		if !r.Stalled {
			continue
		}
		if r.MinimizedCost > r.RawCost {
			t.Errorf("%s: minimization increased cost (%d > %d)", r.App, r.MinimizedCost, r.RawCost)
		}
		if r.MinimizedCost < r.RawCost {
			saved++
		}
	}
	if saved < 2 {
		t.Errorf("minimization saved bytes on only %d apps", saved)
	}
	var sb strings.Builder
	bench.RenderAblation(&sb, rows)
}

func TestMTReconstruction(t *testing.T) {
	rows, err := bench.RunMT()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if !r.Reproduced || !r.Verified {
			t.Errorf("%s: MT reconstruction failed", r.App)
		}
		if r.Threads < 3 {
			t.Errorf("%s: threads %d", r.App, r.Threads)
		}
	}
	var sb strings.Builder
	bench.RenderMT(&sb, rows)
}

func TestFig1Spectrum(t *testing.T) {
	rows, err := bench.RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	var er *bench.Fig1Position
	for i := range rows {
		if strings.HasPrefix(rows[i].System, "ER") {
			er = &rows[i]
		}
	}
	if er == nil {
		t.Fatal("ER row missing")
	}
	if !er.Efficient || !er.Effective || !er.Accurate {
		t.Errorf("ER must sit inside all three boundaries: %+v", er)
	}
	// No other system may hold all three properties except ER.
	for _, r := range rows {
		if r.System != er.System && r.Efficient && r.Effective && r.Accurate {
			t.Errorf("%s also claims all three properties", r.System)
		}
	}
	var sb strings.Builder
	bench.RenderFig1(&sb, rows)
}
