// Command er compiles and runs minc programs, and reproduces their
// failures through the full Execution Reconstruction loop.
//
// Usage:
//
//	er [flags] run prog.minc         tag=1,2,3 tag2=4 ... run once, report outcome
//	er [flags] reproduce prog.minc   tag=1,2,3 ...        ER loop on the failing input
//	er [flags] constraints prog.minc tag=1,2,3 ...        dump the failing run's path
//	                                                      constraint as SMT-LIB 2
//	er -coordinator URL submit prog.minc tag=1,2,3 ...    run once traced and ship a
//	                                                      failing occurrence to an
//	                                                      erd coordinator
//	er -coordinator URL verdicts                          list every cluster bucket's
//	                                                      triage outcome
//	er -coordinator URL timeline                          render every bucket's
//	                                                      cross-process reconstruction
//	                                                      timeline (ingest → lease →
//	                                                      remote replay → resolve)
//
// Input streams are given as tag=v1,v2,... arguments.
//
// Flags:
//
//	-store <dir>   use a persistent trace archive (internal/tracestore)
//	               rooted at dir. `run` archives the traced run when it
//	               fails; `reproduce` routes every traced reoccurrence
//	               through the archive (append, then decode back off the
//	               segment log).
//	-replay-store  with -store, `reproduce` performs no production runs
//	               at all: reoccurrences are replayed from the archived
//	               records of the failure's signature, in sequence
//	               order. The archive must already hold the failure
//	               (e.g. from earlier `er run -store` invocations).
//	-coordinator   base URL of an erd coordinator (cmd/erd). Required by
//	               the `submit` and `verdicts` subcommands, which speak
//	               the cluster wire protocol as a pure client: submit
//	               traces into the fleet's ingest path, query triage
//	               verdicts back out.
//	-v             log ER loop progress to stderr.
//
// All errors — including a failure that cannot be reproduced and an
// archive that runs dry under -replay-store — exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"execrecon"
	"execrecon/internal/cluster"
	"execrecon/internal/core"
	"execrecon/internal/expr"
	"execrecon/internal/prod"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: er [-store dir] [-replay-store] [-v] run|reproduce|constraints <prog.minc> [tag=v1,v2,...]...")
	fmt.Fprintln(os.Stderr, "       er -coordinator URL submit <prog.minc> [tag=v1,v2,...]...")
	fmt.Fprintln(os.Stderr, "       er -coordinator URL verdicts")
	fmt.Fprintln(os.Stderr, "       er -coordinator URL timeline")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	storeDir := flag.String("store", "", "archive traces in a persistent store rooted at this directory")
	replayStore := flag.Bool("replay-store", false, "reproduce from archived records only (requires -store)")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address (/metrics Prometheus text, /debug/er JSON) while the command runs")
	coordinator := flag.String("coordinator", "", "erd coordinator base URL (enables the submit and verdicts subcommands)")
	verbose := flag.Bool("v", false, "log ER loop progress to stderr")
	flag.Usage = usage
	flag.Parse()
	// `verdicts` is a pure coordinator query with no program argument;
	// every other subcommand compiles one.
	if flag.Arg(0) == "verdicts" {
		if *coordinator == "" {
			fatal(fmt.Errorf("verdicts requires -coordinator"))
		}
		if flag.NArg() > 1 {
			usage()
		}
		reportVerdicts(*coordinator)
		return
	}
	// `timeline` likewise queries the coordinator directly.
	if flag.Arg(0) == "timeline" {
		if *coordinator == "" {
			fatal(fmt.Errorf("timeline requires -coordinator"))
		}
		if flag.NArg() > 1 {
			usage()
		}
		reportTimelines(*coordinator)
		return
	}
	if flag.NArg() < 2 {
		usage()
	}
	if *replayStore && *storeDir == "" {
		fatal(fmt.Errorf("-replay-store requires -store"))
	}
	cmd, path := flag.Arg(0), flag.Arg(1)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	mod, err := er.Compile(path, string(src))
	if err != nil {
		fatal(err)
	}
	w := er.NewWorkload()
	for _, arg := range flag.Args()[2:] {
		tag, vals, ok := strings.Cut(arg, "=")
		if !ok {
			fatal(fmt.Errorf("bad input argument %q (want tag=v1,v2,...)", arg))
		}
		for _, vs := range strings.Split(vals, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(vs), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad value %q in %q", vs, arg))
			}
			w.Add(tag, v)
		}
	}

	var store *tracestore.Store
	if *storeDir != "" {
		store, err = tracestore.Open(*storeDir, tracestore.Options{})
		if err != nil {
			fatal(fmt.Errorf("open trace store: %w", err))
		}
		defer store.Close()
	}
	var log *os.File
	if *verbose {
		log = os.Stderr
	}
	app := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))

	// Live telemetry: every stage of the session (core loop, symbolic
	// executor, solver, trace store) reports into one registry served
	// on -metrics-addr for the lifetime of the command.
	var (
		reg    *er.Telemetry
		tracer *er.Tracer
	)
	if *metricsAddr != "" {
		reg = er.NewTelemetry()
		tracer = er.NewTracer(0)
		if store != nil {
			store.RegisterMetrics(reg)
		}
		srv, err := er.ServeTelemetry(*metricsAddr, er.TelemetryOptions{Registry: reg, Tracer: tracer})
		if err != nil {
			fatal(fmt.Errorf("metrics endpoint: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "er: telemetry on http://%s/metrics\n", srv.Addr())
	}
	erOpts := er.Options{Log: log, Telemetry: reg, Tracer: tracer}

	switch cmd {
	case "run":
		if store == nil {
			res := er.Run(mod, w, 1)
			reportRun(res)
			return
		}
		// Traced run: archive the ring when the run fails, exactly as a
		// production machine would ship it.
		res, ring := new(prod.Recorder).Run(mod, "main", w, 1, true, 0)
		if res.Failure != nil {
			seq, err := store.AppendRing(res.Failure, tracestore.Meta{
				App: app, Seed: 1, Instrs: res.Stats.Instrs,
			}, ring)
			if err != nil {
				fatal(fmt.Errorf("archive trace: %w", err))
			}
			fmt.Printf("archived: key=%#x seq=%d\n", tracestore.KeyOf(res.Failure), seq)
		}
		reportRun(res)
	case "reproduce":
		var rep *er.Report
		switch {
		case store == nil:
			rep, err = er.Reproduce(mod, w, 1, erOpts)
		case *replayStore:
			key, kerr := storeKeyFor(store, mod, w)
			if kerr != nil {
				fatal(kerr)
			}
			rep, err = er.ReproduceFrom(mod, &tracestore.ReplaySource{Store: store, Key: key},
				erOpts)
		default:
			rep, err = er.ReproduceFrom(mod, &tracestore.Source{
				Store: store,
				Gen:   &core.FixedWorkload{Workload: w, Seed: 1},
				App:   app,
			}, erOpts)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(er.Describe(rep))
		if !rep.Reproduced {
			// Reproduction failing is the tool failing: make it
			// visible to scripts via the exit code.
			os.Exit(1)
		}
		fmt.Println("generated test case:")
		for tag, vals := range rep.TestCase.Streams {
			fmt.Printf("  %s = %v\n", tag, vals)
		}
	case "submit":
		if *coordinator == "" {
			fatal(fmt.Errorf("submit requires -coordinator"))
		}
		// Capture exactly what a production machine ships: a traced run
		// whose ring buffer and failure travel to the coordinator's
		// ingest path over the wire protocol.
		res, ring := new(prod.Recorder).Run(mod, "main", w, 1, true, 0)
		if res.Failure == nil {
			fatal(fmt.Errorf("the given input does not fail; nothing to submit"))
		}
		raw, lost := ring.Bytes()
		resp, err := cluster.NewClient(*coordinator, "").Submit(&cluster.SubmitRequest{
			App:     app,
			Failure: res.Failure,
			Raw:     raw,
			Lost:    lost,
			Seed:    1,
			Instrs:  res.Stats.Instrs,
		})
		if err != nil {
			fatal(err)
		}
		if !resp.OK {
			fatal(fmt.Errorf("coordinator rejected submit: %s", resp.Err))
		}
		if !resp.Accepted {
			fatal(fmt.Errorf("ingest dropped the occurrence (app %q not in the coordinator's corpus, or the fleet is shutting down)", app))
		}
		fmt.Printf("submitted: app=%s key=%#x failure=%v\n", app, tracestore.KeyOf(res.Failure), res.Failure)
	case "constraints":
		tr, res, err := er.RecordTrace(mod, w, 1)
		if err != nil {
			fatal(err)
		}
		if res.Failure == nil {
			fatal(fmt.Errorf("the given input does not fail; nothing to reconstruct"))
		}
		if err := requireWhole(tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "; failure: %v\n", res.Failure)
		sres := symex.New(mod, tr, res.Failure, symex.Options{}).Run("main")
		if sres.Status != symex.StatusCompleted && sres.Status != symex.StatusStalled {
			fatal(fmt.Errorf("symbolic execution %v: %v", sres.Status, sres.Err))
		}
		if err := expr.WriteSMTLIB(os.Stdout, sres.PathConstraint); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

// requireWhole rejects a trace whose ring overflowed: shepherding
// along a trace missing its prefix yields the wrong path constraint.
func requireWhole(tr *er.Trace) error {
	if tr.Truncated {
		return fmt.Errorf("trace ring overflowed (%d bytes lost); the path constraint needs the whole trace", tr.LostBytes)
	}
	return nil
}

// reportVerdicts lists every cluster bucket's triage outcome.
func reportVerdicts(base string) {
	resp, err := cluster.NewClient(base, "").Verdicts()
	if err != nil {
		fatal(err)
	}
	if !resp.OK {
		fatal(fmt.Errorf("coordinator rejected verdicts: %s", resp.Err))
	}
	if len(resp.Buckets) == 0 {
		fmt.Println("no buckets yet")
		return
	}
	for _, b := range resp.Buckets {
		status := b.State
		switch {
		case b.Reproduced && b.Verified:
			status = "reproduced+verified"
		case b.Reproduced:
			status = "reproduced (unverified)"
		case b.State == "resolved":
			status = "NOT reproduced"
			if b.FailReason != "" {
				status += " (" + b.FailReason + ")"
			}
		}
		fmt.Printf("%-24s key=%#x %-22s node=%-12s term=%d iters=%d redispatches=%d\n",
			b.App, b.Key, status, b.Node, b.Term, b.Iterations, b.Redispatches)
	}
}

// reportTimelines fetches /debug/er/timeline and renders each
// bucket's stitched cross-process span tree as an indented outline.
func reportTimelines(base string) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/debug/er/timeline")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("coordinator: /debug/er/timeline: HTTP %d", resp.StatusCode))
	}
	var timelines []cluster.BucketTimeline
	if err := json.NewDecoder(resp.Body).Decode(&timelines); err != nil {
		fatal(fmt.Errorf("decode timelines: %w", err))
	}
	if len(timelines) == 0 {
		fmt.Println("no buckets yet")
		return
	}
	for i, tl := range timelines {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s key=%#x state=%s redispatches=%d\n",
			tl.App, tl.Key, tl.State, tl.Redispatches)
		if err := telemetry.WriteTree(os.Stdout, tl.Root); err != nil {
			fatal(err)
		}
	}
}

// reportRun prints a run's outcome, exiting 1 on failure.
func reportRun(res *er.RunResult) {
	fmt.Printf("instructions: %d\n", res.Stats.Instrs)
	if len(res.Output) > 0 {
		fmt.Printf("output: %v\n", res.Output)
	}
	if res.Failure != nil {
		fmt.Printf("FAILURE: %v\n", res.Failure)
		os.Exit(1)
	}
	fmt.Println("exited cleanly")
}

// storeKeyFor picks the archived signature to replay. When the archive
// holds exactly one signature that is unambiguous; otherwise the given
// workload is executed once (locally, untraced — not a production run)
// to learn which failure it triggers.
func storeKeyFor(store *tracestore.Store, mod *er.Module, w *er.Workload) (uint64, error) {
	keys := store.Keys()
	if len(keys) == 0 {
		return 0, fmt.Errorf("trace store at %s holds no archived failures", store.Dir())
	}
	if len(keys) == 1 {
		return keys[0], nil
	}
	res := er.Run(mod, w, 1)
	if res.Failure == nil {
		return 0, fmt.Errorf("store holds %d signatures and the given input does not fail; cannot pick one to replay", len(keys))
	}
	key := tracestore.KeyOf(res.Failure)
	if store.Sig(key) == nil {
		return 0, fmt.Errorf("failure %v (key %#x) has no archived records among the store's %d signatures",
			res.Failure, key, len(keys))
	}
	return key, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "er:", err)
	os.Exit(1)
}
