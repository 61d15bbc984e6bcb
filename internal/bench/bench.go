// Package bench contains the experiment drivers that regenerate the
// paper's evaluation artifacts (per-experiment index in DESIGN.md):
// Table 1 (reproduction of the 13 bugs), Fig. 5 (symbolic-execution
// progress with and without recorded data values), Fig. 6 (runtime
// overhead of ER vs record/replay), the §5.2 random-recording and
// REPT comparisons, the §5.3 offline-cost measurements, and the §5.4
// MIMIC case study. Each driver returns structured results and can
// render the same rows/series the paper reports.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/ir"
)

// table renders rows with aligned columns.
func table(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// DefaultQueryBudget is apps.DefaultQueryBudget, kept under this name
// for the benchmark module.
const DefaultQueryBudget = apps.DefaultQueryBudget

// ReproConfig is the reproduction recipe every experiment runs an app
// with: its failing workload and seed, its query budget (a.Budget),
// and the default iteration limit.
func ReproConfig(a *apps.App, mod *ir.Module) core.Config {
	return core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed},
		Symex:  a.SymexOptions(),
	}
}
