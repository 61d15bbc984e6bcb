package bench

import (
	"fmt"
	"io"

	"execrecon/internal/apps"
	"execrecon/internal/keyselect"
	"execrecon/internal/prod"
	"execrecon/internal/symex"
)

// AblationRow compares key data value selection with and without the
// §3.3.2 recording-cost minimization, on the first stall of each
// data-requiring bug: how many bytes per occurrence would each
// strategy record?
type AblationRow struct {
	App            string
	Stalled        bool
	BottleneckSize int
	MinimizedCost  int64
	MinimizedSites int
	RawCost        int64
	RawSites       int
}

// RunAblation measures the value of recording-set minimization.
func RunAblation() ([]AblationRow, error) {
	var rows []AblationRow
	var rec prod.Recorder
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		trace, failRes, err := rec.Record(mod, a.Failing(), a.Seed)
		if err == nil && failRes.Failure == nil {
			err = errNoFailure
		}
		if err != nil {
			return nil, err
		}
		sres := symex.New(mod, trace, failRes.Failure,
			symex.Options{QueryBudget: a.QueryBudget}).Run("main")
		row := AblationRow{App: a.Name, Stalled: sres.Status == symex.StatusStalled}
		if row.Stalled {
			min, err := keyselect.Select(sres)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			raw, err := keyselect.SelectWith(sres, keyselect.Options{NoMinimize: true})
			if err != nil {
				return nil, fmt.Errorf("%s (raw): %w", a.Name, err)
			}
			row.BottleneckSize = len(min.Bottleneck)
			row.MinimizedCost = min.TotalCostBytes
			row.MinimizedSites = len(min.Sites)
			row.RawCost = raw.TotalCostBytes
			row.RawSites = len(raw.Sites)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblation prints the comparison.
func RenderAblation(w io.Writer, rows []AblationRow) {
	header := []string{"Application", "Bottleneck", "Minimized B/occur (sites)", "Raw B/occur (sites)", "Saving"}
	var out [][]string
	for _, r := range rows {
		if !r.Stalled {
			out = append(out, []string{r.App, "-", "no stall at first occurrence", "-", "-"})
			continue
		}
		saving := "0%"
		if r.RawCost > 0 {
			saving = fmt.Sprintf("%.0f%%", 100*(1-float64(r.MinimizedCost)/float64(r.RawCost)))
		}
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.BottleneckSize),
			fmt.Sprintf("%d (%d)", r.MinimizedCost, r.MinimizedSites),
			fmt.Sprintf("%d (%d)", r.RawCost, r.RawSites),
			saving,
		})
	}
	table(w, header, out)
	fmt.Fprintln(w, "\n(§3.3.2: recording the raw bottleneck set \"has high overhead\"; the")
	fmt.Fprintln(w, " cost-reduction DFS records a cheaper set from which it can be deduced)")
}
