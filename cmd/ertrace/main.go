// Command ertrace records one monitored execution of a minc program
// and prints the decoded PT-like packet stream — the raw material ER's
// analysis engine consumes. -dump-cfg instead renders each function's
// control-flow graph as Graphviz DOT without running the program.
//
// Usage:
//
//	ertrace [-dump-cfg] [-spans [-budget n]] prog.minc [tag=v1,v2,...]...
//
// Flags:
//
//	-dump-cfg  write every function's CFG as Graphviz DOT to stdout
//	           and exit without executing the program. Edges are
//	           control flow (T/F-labelled for conditional branches);
//	           unreachable blocks are greyed out.
//	-spans     run the full ER reproduction loop on the given (failing)
//	           input instead of dumping packets, and print the
//	           session's nested span tree: the reconstruction root, one
//	           iteration per analyzed occurrence, and the
//	           shepherd/solve/keyselect/instrument/verify stage spans
//	           with their attributes (signature, solver verdict,
//	           recording-set size).
//	-budget n  solver query budget for -spans (0 = unlimited; small
//	           budgets force stall iterations into the tree).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"execrecon"
	"execrecon/internal/dataflow"
	"execrecon/internal/pt"
	"execrecon/internal/telemetry"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ertrace [-dump-cfg] [-spans [-budget n]] <prog.minc> [tag=v1,v2,...]...")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	dumpCFG := flag.Bool("dump-cfg", false, "write function CFGs as Graphviz DOT to stdout and exit")
	spans := flag.Bool("spans", false, "run the ER loop and print the session's span tree instead of dumping packets")
	budget := flag.Int64("budget", 0, "solver query budget for -spans (0 = unlimited)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	mod, err := er.Compile(path, string(src))
	if err != nil {
		fatal(err)
	}
	if *dumpCFG {
		for _, fn := range mod.Funcs {
			if err := dataflow.BuildCFG(fn).WriteDOT(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}
	w := er.NewWorkload()
	for _, arg := range flag.Args()[1:] {
		tag, vals, ok := strings.Cut(arg, "=")
		if !ok {
			fatal(fmt.Errorf("bad input argument %q", arg))
		}
		for _, vs := range strings.Split(vals, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(vs), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad value %q in %q (want tag=v1,v2,...)", vs, arg))
			}
			w.Add(tag, v)
		}
	}
	if *spans {
		printSpans(mod, w, *budget)
		return
	}
	tr, res, err := er.RecordTrace(mod, w, 1)
	if err != nil {
		fatal(err)
	}
	if tr.Truncated {
		// The ring wrapped and the oldest packets were overwritten.
		// Dump what survived, but make the loss visible to scripts.
		fmt.Fprintln(os.Stderr, "ertrace: warning: trace truncated (ring buffer wrapped, oldest packets lost)")
	}
	if res.Failure != nil {
		fmt.Printf("# run failed: %v\n", res.Failure)
	} else {
		fmt.Println("# run exited cleanly")
	}
	fmt.Printf("# %d instructions, %d events\n", res.Stats.Instrs, len(tr.Events))
	var tnt strings.Builder
	flush := func() {
		if tnt.Len() > 0 {
			fmt.Printf("TNT  %s\n", tnt.String())
			tnt.Reset()
		}
	}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case pt.EvTNT:
			if ev.Taken {
				tnt.WriteByte('1')
			} else {
				tnt.WriteByte('0')
			}
			if tnt.Len() == 64 {
				flush()
			}
		case pt.EvTIP:
			flush()
			fmt.Printf("TIP  target=%d\n", ev.Target)
		case pt.EvPTW:
			flush()
			fmt.Printf("PTW  key=%d width=%d value=%d\n", ev.Key, ev.WidthBits, ev.Value)
		case pt.EvChunk:
			flush()
			fmt.Printf("CHNK tid=%d ts=%d\n", ev.Tid, ev.Timestamp)
		case pt.EvPGD:
			flush()
			fmt.Printf("PGD  count=%d\n", ev.Count)
		case pt.EvEnd:
			flush()
			fmt.Println("END")
		}
	}
	flush()
	if tr.Truncated {
		os.Exit(1)
	}
}

// printSpans runs the full ER loop on the failing workload with a
// span tracer attached and renders every finished reconstruction tree
// as an indented outline. Exits non-zero when the failure does not
// reproduce (mirroring `er reproduce`).
func printSpans(mod *er.Module, w *er.Workload, budget int64) {
	tracer := er.NewTracer(0)
	rep, err := er.Reproduce(mod, w, 1, er.Options{QueryBudget: budget, Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s\n", er.Describe(rep))
	for _, root := range tracer.Recent() {
		if err := telemetry.WriteTree(os.Stdout, root); err != nil {
			fatal(err)
		}
	}
	if !rep.Reproduced {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ertrace:", err)
	os.Exit(1)
}
