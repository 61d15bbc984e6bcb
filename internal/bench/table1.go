package bench

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/telemetry"
)

// Table1Row mirrors one row of the paper's Table 1.
type Table1Row struct {
	App        string
	BugType    string
	MT         bool
	SrcLines   int
	Instrs     int64 // #Instr: dynamic instructions of the failing run
	Occur      int   // #Occur: failure occurrences needed
	SymbexTime time.Duration
	Reproduced bool
	Verified   bool
	FailReason string

	// Offline-cost extras (§5.3).
	GraphNodes int
	SelectTime time.Duration
	// RecordedBytes is the per-occurrence recording cost of the
	// final instrumentation.
	RecordedBytes int64
}

// Table1Options configures the Table 1 run.
type Table1Options struct {
	// Only restricts the run to the named apps (nil = all 13).
	Only []string
	// Log, when set, receives each session's iteration events as
	// log/slog text lines.
	Log io.Writer
}

// RunTable1 reproduces every Table 1 bug through the full ER loop and
// reports the paper's columns.
func RunTable1(opts Table1Options) []Table1Row {
	var rows []Table1Row
	log := telemetry.TextLogger(opts.Log)
	for _, a := range apps.All() {
		if len(opts.Only) > 0 && !contains(opts.Only, a.Name) {
			continue
		}
		rows = append(rows, runTable1App(a, log))
	}
	return rows
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func runTable1App(a *apps.App, log *slog.Logger) Table1Row {
	row := Table1Row{App: a.Name, BugType: a.BugType, MT: a.MT, SrcLines: a.SrcLines()}
	mod, err := a.Module()
	if err != nil {
		row.FailReason = err.Error()
		return row
	}
	cfg := ReproConfig(a, mod)
	cfg.Logger = log
	rep, err := core.Reproduce(cfg)
	if err != nil {
		row.FailReason = err.Error()
		if rep == nil {
			return row
		}
	}
	row.Instrs = rep.TraceInstrs
	row.Occur = rep.Occurrences
	row.SymbexTime = rep.TotalSymexTime
	row.Reproduced = rep.Reproduced
	row.Verified = rep.Verified
	for _, it := range rep.Iterations {
		if it.GraphNodes > row.GraphNodes {
			row.GraphNodes = it.GraphNodes
		}
		row.SelectTime += it.SelectTime
		if it.RecordingCost > 0 {
			row.RecordedBytes = it.RecordingCost
		}
	}
	return row
}

// RenderTable1 prints the rows in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	header := []string{"Application-BugID", "Bug Type", "MT", "LoC(minc)", "#Instr", "#Occur", "Symbex Time", "Reproduced"}
	var out [][]string
	for _, r := range rows {
		mt := "N"
		if r.MT {
			mt = "Y"
		}
		rep := "yes (verified)"
		if !r.Reproduced {
			rep = "NO: " + r.FailReason
		} else if !r.Verified {
			rep = "yes (unverified)"
		}
		out = append(out, []string{
			r.App, r.BugType, mt,
			fmt.Sprintf("%d", r.SrcLines),
			fmt.Sprintf("%d", r.Instrs),
			fmt.Sprintf("%d", r.Occur),
			r.SymbexTime.Round(time.Millisecond).String(),
			rep,
		})
	}
	table(w, header, out)
}

// RenderOffline prints the §5.3 offline-cost columns gathered during
// the Table 1 runs.
func RenderOffline(w io.Writer, rows []Table1Row) {
	header := []string{"Application-BugID", "Graph Nodes", "Selection Time", "Recorded B/occur"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.GraphNodes),
			r.SelectTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.RecordedBytes),
		})
	}
	table(w, header, out)
}
