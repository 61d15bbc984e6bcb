package bench

import (
	"fmt"
	"io"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/prod"
	"execrecon/internal/vm"
)

// Fig6Row is one bar pair of Fig. 6: ER's monitoring overhead and the
// record/replay baseline's, on one application's performance
// workload.
type Fig6Row struct {
	App      string
	ER       prod.Summary
	RR       prod.Summary
	ERTraceB uint64 // mean trace bytes per run
}

// RunFig6 measures runtime overhead for every Table 1 application:
// ER (control-flow tracing plus the final iteration's ptwrite
// instrumentation, per §5.3 "the last occurrence records the most
// data") versus rr-style full record/replay.
func RunFig6(runs int) ([]Fig6Row, error) {
	var rows []Fig6Row
	runner := prod.NewRunner()
	if runs > 0 {
		runner.Runs = runs
	}
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		instr, err := finalInstrumentation(a, mod)
		if err != nil {
			return nil, err
		}
		w := func(i int) (*vm.Workload, int64) { return a.Benign(i), int64(i) + 1 }
		row := Fig6Row{App: a.Name}
		row.ER = runner.MeasureER(mod, instr, w)
		row.RR = runner.MeasureRR(mod, w)
		var tb uint64
		for _, s := range row.ER.Samples {
			tb += s.TraceBytes
		}
		if n := len(row.ER.Samples); n > 0 {
			row.ERTraceB = tb / uint64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// finalInstrumentation reproduces the app and returns the module as
// deployed in the final (most-instrumented) iteration: the session's
// chain folded onto the base module.
func finalInstrumentation(a *apps.App, mod *ir.Module) (*ir.Module, error) {
	rep, err := core.Reproduce(ReproConfig(a, mod))
	if err != nil || !rep.Reproduced {
		// Overhead of plain control-flow tracing still applies.
		return mod, nil
	}
	return keyselect.InstrumentChain(mod, rep.Chain())
}

// RenderFig6 prints the overhead bars with standard errors.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	header := []string{"Application", "ER overhead", "rr overhead", "ER trace bytes/run"}
	var out [][]string
	var erSum, rrSum, erMax, rrMax float64
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%.2f%% ± %.2f", r.ER.MeanPct, r.ER.StderrPct),
			fmt.Sprintf("%.1f%% ± %.1f", r.RR.MeanPct, r.RR.StderrPct),
			fmt.Sprintf("%d", r.ERTraceB),
		})
		erSum += r.ER.MeanPct
		rrSum += r.RR.MeanPct
		if r.ER.MeanPct > erMax {
			erMax = r.ER.MeanPct
		}
		if r.RR.MeanPct > rrMax {
			rrMax = r.RR.MeanPct
		}
	}
	table(w, header, out)
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "\nER:  average %.2f%%, max %.2f%%   (paper: avg 0.3%%, max 1.1%%)\n", erSum/n, erMax)
		fmt.Fprintf(w, "rr:  average %.1f%%, max %.1f%%   (paper: avg 48.0%%, max 142.2%%)\n", rrSum/n, rrMax)
	}
}
