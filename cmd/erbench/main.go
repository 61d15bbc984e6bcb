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
//	fleet     fleet-scale triage: the 13 apps as one mixed workload,
//	          sequential vs parallel ER pipelines (internal/fleet);
//	          -nodes N triages the same corpus through an in-process
//	          multi-node cluster instead (internal/cluster: coordinator
//	          + N triage nodes over loopback HTTP, scaling measured at
//	          {1,2,4} <= N), and -kill-after D adds a node-kill chaos
//	          run that must preserve verdict parity
//	tracestore  persistent trace archive: per-app raw-vs-stored
//	          compression over archived reoccurrences, ingest
//	          throughput, and verdict parity when every trace is read
//	          back through the store's streaming reader
//	corpus    population-scale reproduction: generate -corpus-n
//	          self-verified scenarios from -seed (seven injected bug
//	          patterns, two of them concurrency) and reproduce the
//	          whole population through the fleet under mixed
//	          benign/failing traffic, reporting per-pattern
//	          reproduction rates, iteration counts, and recording-cost
//	          distributions
//	all       everything above
//
// Tracing overhead is measured by the repository benchmark
// (benchmark/, trace_overhead_pct).
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
	"accuracy", "rept", "mimic", "ablation", "mt", "fleet",
	"tracestore", "corpus",
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
	app := flag.String("app", "", "restrict table1/fleet to one app / select fig5 app")
	workers := flag.Int("workers", 0, "parallel pipeline workers for the fleet experiment (0 = GOMAXPROCS)")
	machines := flag.Int("machines", 0, "producer machines per app for the fleet experiment (0 = default 2)")
	nodes := flag.Int("nodes", 0, "run the fleet experiment through an in-process multi-node cluster (coordinator + N triage nodes over loopback HTTP); scaling is measured at every count in {1,2,4} <= N")
	killAfter := flag.Duration("kill-after", 0, "with -nodes >= 2, kill -9 one triage node this long into an extra chaos run (all buckets must still resolve via lease re-dispatch)")
	pace := flag.Duration("pace", 0, "production-run spacing per producer machine in the fleet and corpus experiments (0 = default: 100ms for fleet, 200µs for corpus)")
	corpusN := flag.Int("corpus-n", 200, "generated scenarios for the corpus experiment")
	seed := flag.Int64("seed", 1, "generation master seed for the corpus experiment")
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
	// Fleet sizing flags must be sane: a negative worker pool,
	// machine count, or pace is always a caller mistake — fail fast
	// instead of letting withDefaults silently "correct" it.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "erbench: -workers must be >= 0 (got %d)\n", *workers)
		os.Exit(2)
	}
	if *machines < 0 {
		fmt.Fprintf(os.Stderr, "erbench: -machines must be >= 0 (got %d)\n", *machines)
		os.Exit(2)
	}
	if *pace < 0 {
		fmt.Fprintf(os.Stderr, "erbench: -pace must be >= 0 (got %v)\n", *pace)
		os.Exit(2)
	}
	// Cluster sizing flags: an explicit -nodes must name a positive
	// node count, and the chaos mode needs a surviving node to inherit
	// the victim's leases.
	nodesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "nodes" {
			nodesSet = true
		}
	})
	if nodesSet && *nodes <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: -nodes must be > 0 (got %d)\n", *nodes)
		os.Exit(2)
	}
	if *killAfter < 0 {
		fmt.Fprintf(os.Stderr, "erbench: -kill-after must be >= 0 (got %v)\n", *killAfter)
		os.Exit(2)
	}
	if *killAfter > 0 && *nodes < 2 {
		fmt.Fprintln(os.Stderr, "erbench: -kill-after requires -nodes >= 2 (a survivor must inherit the victim's leases)")
		os.Exit(2)
	}
	if *runs <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: -runs must be > 0 (got %d)\n", *runs)
		os.Exit(2)
	}
	// Corpus sizing flags: a non-positive population or seed is always
	// a caller mistake (seed 0 would silently alias the default
	// population instead of naming a reproducible one).
	if *corpusN <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: -corpus-n must be > 0 (got %d)\n", *corpusN)
		os.Exit(2)
	}
	if *seed <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: -seed must be > 0 (got %d)\n", *seed)
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
	if run("fleet") {
		if *nodes > 0 {
			fmt.Fprintln(out, "== fleet-scale triage: distributed multi-node cluster ==")
			opts := bench.FleetClusterOptions{
				Nodes:          *nodes,
				KillAfter:      *killAfter,
				MachinesPerApp: *machines,
				Pace:           *pace,
			}
			if *app != "" {
				opts.Only = []string{*app}
			}
			if log != nil {
				opts.Log = log
			}
			r, err := bench.RunFleetCluster(opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleet:", err)
				ok = false
			} else {
				bench.RenderFleetCluster(out, r)
				if !r.Parity() {
					ok = false
				}
			}
		} else {
			fmt.Fprintln(out, "== fleet-scale triage: sequential vs parallel ER pipelines ==")
			opts := bench.FleetExpOptions{Workers: *workers, MachinesPerApp: *machines, Pace: *pace}
			if *app != "" {
				opts.Only = []string{*app}
			}
			if log != nil {
				opts.Log = log
			}
			r, err := bench.RunFleetExp(opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleet:", err)
				ok = false
			} else {
				bench.RenderFleet(out, r)
			}
		}
		fmt.Fprintln(out)
	}
	if run("tracestore") {
		fmt.Fprintln(out, "== trace archive: compression, ingest throughput, verdict parity ==")
		opts := bench.TracestoreOptions{}
		if *app != "" {
			opts.Only = []string{*app}
		}
		if log != nil {
			opts.Log = log
		}
		rows, err := bench.RunTracestore(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestore:", err)
			ok = false
		} else {
			bench.RenderTracestore(out, rows)
			if !bench.TracestoreParity(rows) {
				fmt.Fprintln(os.Stderr, "tracestore: verdict parity violated (see table)")
				ok = false
			}
		}
		fmt.Fprintln(out)
	}
	if run("corpus") {
		fmt.Fprintln(out, "== population-scale reproduction over generated scenarios ==")
		opts := bench.CorpusOptions{
			N:       *corpusN,
			Seed:    uint64(*seed),
			Workers: *workers,
			Pace:    *pace,
		}
		if log != nil {
			opts.Log = log
		}
		r, err := bench.RunCorpus(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			ok = false
		} else {
			bench.RenderCorpus(out, r)
			if r.TimedOut {
				ok = false
			}
		}
		fmt.Fprintln(out)
	}
	if !ok {
		os.Exit(1)
	}
}
