// Command erbench regenerates the paper's evaluation artifacts. Each
// -exp value corresponds to a table or figure (see DESIGN.md's
// per-experiment index):
//
//	fig1      Fig. 1: the efficiency/effectiveness/accuracy spectrum
//	table1    Table 1: reproduce the 13 bugs (#Instr, #Occur, Symbex Time)
//	offline   §5.3 offline costs (graph nodes, selection time, bytes)
//	fig5      Fig. 5: symbex progress vs recorded data values
//	fig6      Fig. 6: runtime overhead, ER vs record/replay
//	random    §5.2 key selection vs random recording
//	accuracy  §5.2 generated-input accuracy
//	rept      §2.3/§5.2 REPT recovery accuracy vs trace length
//	mimic     §5.4 invariant-based failure localization
//	ablation  recording-set minimization on/off (design-choice check)
//	mt        §3.4 multithreaded reconstruction summary
//	all       everything above
//
// The fleet, cluster, trace archive and generated population are
// measured by the repository benchmark (benchmark/) and checked by
// their packages' tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"execrecon/internal/apps"
	"execrecon/internal/bench"
)

// experiments lists the valid -exp values in presentation order.
var experiments = []string{
	"fig1", "table1", "offline", "fig5", "fig6", "random",
	"accuracy", "rept", "mimic", "ablation", "mt",
}

func validExp(name string) bool {
	if name == "all" {
		return true
	}
	for _, e := range experiments {
		if e == name {
			return true
		}
	}
	return false
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments, ", ")+", all)")
	runs := flag.Int("runs", 10, "runs per overhead measurement (fig6)")
	app := flag.String("app", "", "restrict table1/offline to one app / select fig5 app")
	verbose := flag.Bool("v", false, "log ER loop progress")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "erbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if !validExp(*exp) {
		fmt.Fprintf(os.Stderr, "erbench: unknown experiment %q (valid: %s, all)\n",
			*exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}
	if *runs <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: -runs must be > 0 (got %d)\n", *runs)
		os.Exit(2)
	}
	if *app != "" && apps.ByName(*app) == nil {
		var names []string
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
		fmt.Fprintf(os.Stderr, "erbench: unknown app %q (valid: %s)\n", *app, strings.Join(names, ", "))
		os.Exit(2)
	}

	out := os.Stdout
	var log *os.File
	if *verbose {
		log = os.Stderr
	}

	run := func(name string) bool { return *exp == name || *exp == "all" }
	ok := true

	if run("fig1") {
		fmt.Fprintln(out, "== Fig 1: the efficiency/effectiveness/accuracy spectrum ==")
		rows, err := bench.RunFig1()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig1:", err)
			ok = false
		} else {
			bench.RenderFig1(out, rows)
		}
		fmt.Fprintln(out)
	}
	var table1Rows []bench.Table1Row
	if run("table1") || run("offline") {
		opts := bench.Table1Options{}
		if *app != "" {
			opts.Only = []string{*app}
		}
		if log != nil {
			opts.Log = log
		}
		table1Rows = bench.RunTable1(opts)
	}
	if run("table1") {
		fmt.Fprintln(out, "== Table 1: failure reproduction ==")
		bench.RenderTable1(out, table1Rows)
		fmt.Fprintln(out)
	}
	if run("offline") {
		fmt.Fprintln(out, "== §5.3 offline analysis costs ==")
		bench.RenderOffline(out, table1Rows)
		fmt.Fprintln(out)
	}
	if run("fig5") {
		fmt.Fprintln(out, "== Fig 5: symbolic execution progress ==")
		r, err := bench.RunFig5(*app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5:", err)
			ok = false
		} else {
			bench.RenderFig5(out, r)
		}
		fmt.Fprintln(out)
	}
	if run("fig6") {
		fmt.Fprintln(out, "== Fig 6: runtime overhead, ER vs record/replay ==")
		rows, err := bench.RunFig6(*runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			ok = false
		} else {
			bench.RenderFig6(out, rows)
		}
		fmt.Fprintln(out)
	}
	if run("random") {
		fmt.Fprintln(out, "== §5.2 key selection vs random recording ==")
		bench.RenderRandomBaseline(out, bench.RunRandomBaseline(0))
		fmt.Fprintln(out)
	}
	if run("accuracy") {
		fmt.Fprintln(out, "== §5.2 accuracy of reproduced executions ==")
		rows, err := bench.RunAccuracy()
		if err != nil {
			fmt.Fprintln(os.Stderr, "accuracy:", err)
			ok = false
		} else {
			bench.RenderAccuracy(out, rows)
		}
		fmt.Fprintln(out)
	}
	if run("rept") {
		fmt.Fprintln(out, "== REPT-style recovery accuracy vs trace length ==")
		rows, err := bench.RunReptAccuracy(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rept:", err)
			ok = false
		} else {
			bench.RenderRept(out, rows)
		}
		fmt.Fprintln(out)
	}
	if run("mimic") {
		fmt.Fprintln(out, "== §5.4 invariant-based failure localization (MIMIC) ==")
		rows, err := bench.RunMimic()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mimic:", err)
			ok = false
		} else {
			bench.RenderMimic(out, rows)
		}
		fmt.Fprintln(out)
	}
	if run("ablation") {
		fmt.Fprintln(out, "== ablation: recording-set minimization on/off ==")
		rows, err := bench.RunAblation()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			ok = false
		} else {
			bench.RenderAblation(out, rows)
		}
		fmt.Fprintln(out)
	}
	if run("mt") {
		fmt.Fprintln(out, "== §3.4 multithreaded reconstruction ==")
		rows, err := bench.RunMT()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mt:", err)
			ok = false
		} else {
			bench.RenderMT(out, rows)
		}
		fmt.Fprintln(out)
	}
	if !ok {
		os.Exit(1)
	}
}
