// Command erd is the distributed fleet daemon (internal/cluster). It
// serves one of two roles:
//
//	erd -role coordinator -store dir -wal file [-listen addr] [-apps a,b] \
//	    [-machines N] [-pace D] [-ttl D] [-timeout D] [-pprof] \
//	    [-log-level L] [-log-json] [-overhead-budget PCT] [-v]
//
// runs the production half: the producer machines for the selected
// corpus apps, the ingest/dedup path, the durable trace archive, the
// lease/commit WAL, and the versioned /v1/* wire protocol on the same
// endpoint as /metrics and /debug/er. The coordinator is crash-only:
// SIGINT/SIGTERM exit immediately, and a restart over the same -store
// and -wal recovers the lease table and every committed verdict.
//
//	erd -role node -coordinator URL [-name id] [-apps a,b] [-workers N] \
//	    [-log-level L] [-log-json] [-v]
//
// runs a triage node: it leases buckets from the coordinator, replays
// their banked reoccurrences from the archive through a local ER
// pipeline, ships rollout chains back, and commits verdicts. Nodes
// are stateless — kill one and its leases expire and re-dispatch.
//
// Observability: the coordinator journals structured events
// (drainable at /debug/er/events, teed to stderr as JSON lines with
// -log-json, filtered by -log-level), stitches per-bucket
// cross-process timelines (/debug/er/timeline, `er timeline`), and
// accounts recording overhead per instrumentation version
// (er_overhead_* on /metrics; -overhead-budget arms the SLO gate).
//
// All flag validation errors exit 2, matching erbench.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/cluster"
	"execrecon/internal/fleet"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

func main() {
	role := flag.String("role", "", "daemon role: coordinator or node (required)")
	listen := flag.String("listen", "127.0.0.1:0", "coordinator endpoint address (/metrics, /debug/er, /v1/*)")
	coordinator := flag.String("coordinator", "", "coordinator base URL (node role; required)")
	name := flag.String("name", "", "node name for lease bookkeeping (node role; default host-pid)")
	storeDir := flag.String("store", "", "trace archive directory (coordinator role; required)")
	walPath := flag.String("wal", "", "lease/commit write-ahead log file (coordinator role; required)")
	appsFlag := flag.String("apps", "", "comma-separated corpus apps (default: all)")
	machines := flag.Int("machines", 0, "producer machines per app (coordinator; 0 = default 2)")
	pace := flag.Duration("pace", 100*time.Millisecond, "production-run spacing per machine")
	ttl := flag.Duration("ttl", cluster.DefaultTTL, "lease heartbeat deadline")
	timeout := flag.Duration("timeout", 0, "stop after this long even if buckets are unresolved (0 = run until every expected failure resolves)")
	workers := flag.Int("workers", 2, "concurrent bucket pipelines per node (parked buckets hold a lease, not a worker)")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof on the coordinator endpoint")
	logLevel := flag.String("log-level", "info", "journal level: debug, info, warn, or error")
	logJSON := flag.Bool("log-json", false, "tee journal events to stderr as JSON lines")
	overheadBudget := flag.Float64("overhead-budget", 0, "recording-overhead SLO in percent over the version-0 baseline (coordinator; 0 = accounting without a gate)")
	verbose := flag.Bool("v", false, "log cluster progress to stderr")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "erd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	// Role and endpoint validation: empty or unknown values are caller
	// mistakes — exit 2, matching the erbench convention.
	switch *role {
	case "coordinator", "node":
	case "":
		fmt.Fprintln(os.Stderr, "erd: -role is required (coordinator or node)")
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "erd: unknown -role %q (want coordinator or node)\n", *role)
		os.Exit(2)
	}
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "erd: -listen must not be empty")
		os.Exit(2)
	}
	if *ttl <= 0 {
		fmt.Fprintf(os.Stderr, "erd: -ttl must be > 0 (got %v)\n", *ttl)
		os.Exit(2)
	}
	if *machines < 0 {
		fmt.Fprintf(os.Stderr, "erd: -machines must be >= 0 (got %d)\n", *machines)
		os.Exit(2)
	}
	if *pace < 0 {
		fmt.Fprintf(os.Stderr, "erd: -pace must be >= 0 (got %v)\n", *pace)
		os.Exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "erd: -timeout must be >= 0 (got %v)\n", *timeout)
		os.Exit(2)
	}
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "erd: -workers must be > 0 (got %d)\n", *workers)
		os.Exit(2)
	}
	minLevel, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erd: -log-level: %v\n", err)
		os.Exit(2)
	}
	if *overheadBudget < 0 {
		fmt.Fprintf(os.Stderr, "erd: -overhead-budget must be >= 0 (got %v)\n", *overheadBudget)
		os.Exit(2)
	}

	fapps, err := corpusApps(*appsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erd:", err)
		os.Exit(2)
	}
	var log *os.File
	if *verbose {
		log = os.Stderr
	}
	jopts := telemetry.JournalOptions{Min: minLevel}
	if *logJSON {
		jopts.Tee = os.Stderr
	}
	journal := telemetry.NewJournal(jopts)

	switch *role {
	case "coordinator":
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "erd: coordinator role requires -store")
			os.Exit(2)
		}
		if *walPath == "" {
			fmt.Fprintln(os.Stderr, "erd: coordinator role requires -wal")
			os.Exit(2)
		}
		runCoordinator(fapps, *storeDir, *walPath, *listen, *machines, *pace, *ttl, *timeout, *pprof, journal, *overheadBudget, log)
	case "node":
		if *coordinator == "" {
			fmt.Fprintln(os.Stderr, "erd: node role requires -coordinator")
			os.Exit(2)
		}
		nodeName := *name
		if nodeName == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "node"
			}
			nodeName = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		runNode(fapps, nodeName, *coordinator, *workers, journal, log)
	}
}

// corpusApps builds the fleet application list from the Table 1
// corpus, optionally restricted to a comma-separated subset.
func corpusApps(only string) ([]fleet.App, error) {
	var names []string
	if only != "" {
		for _, n := range strings.Split(only, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if apps.ByName(n) == nil {
				return nil, fmt.Errorf("unknown app %q", n)
			}
			names = append(names, n)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-apps named no applications")
		}
	}
	var out []fleet.App
	for _, a := range apps.All() {
		if len(names) > 0 && !contains(names, a.Name) {
			continue
		}
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		out = append(out, fleet.App{
			Name:    a.Name,
			Module:  mod,
			Failing: a.Failing,
			Seed:    a.Seed,
			Symex:   symex.Options{QueryBudget: a.Budget(), MaxInstrs: 50_000_000},
		})
	}
	return out, nil
}

func contains(names []string, n string) bool {
	for _, s := range names {
		if s == n {
			return true
		}
	}
	return false
}

func runCoordinator(fapps []fleet.App, storeDir, walPath, listen string, machines int, pace, ttl, timeout time.Duration, pprof bool, journal *telemetry.Journal, overheadBudget float64, log *os.File) {
	store, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		fatal(fmt.Errorf("open trace store: %w", err))
	}
	defer store.Close()
	reg := telemetry.New()
	journal.RegisterMetrics(reg)
	overhead := telemetry.NewOverhead(telemetry.OverheadOptions{
		BudgetPct: overheadBudget,
		Journal:   journal,
		Registry:  reg,
	})
	fo := fleet.Options{
		MachinesPerApp: machines,
		Pace:           pace,
		Telemetry:      reg,
		Tracer:         telemetry.NewTracer(0),
		Journal:        journal,
		Overhead:       overhead,
		Pprof:          pprof,
		Log:            log,
	}
	if timeout > 0 {
		fo.Timeout = timeout
	} else {
		fo.Timeout = -1 // a daemon runs until its buckets resolve
	}
	coord, err := cluster.NewCoordinator(fapps, cluster.CoordinatorOptions{
		Fleet:   fo,
		Store:   store,
		WALPath: walPath,
		TTL:     ttl,
		Listen:  listen,
		Log:     log,
	})
	if err != nil {
		fatal(err)
	}
	if err := coord.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("erd: coordinator on %s (store %s, wal %s, %d apps)\n",
		coord.URL(), storeDir, walPath, len(fapps))

	// Crash-only shutdown: the WAL and archive are the durable state,
	// and recovery is the tested path — don't invent a second one.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "erd: %v: state is durable in the WAL and archive; exiting (a restart recovers the lease table)\n", s)
		os.Exit(130)
	}()

	res, err := coord.Wait()
	if err != nil {
		fatal(err)
	}
	snap := coord.Snapshot()
	fmt.Printf("erd: resolved %d buckets in %v (granted %d, redispatched %d, recovered %d)\n",
		len(res.Buckets), res.Elapsed.Round(time.Millisecond), snap.Granted, snap.Redispatched, snap.Recovered)
	code := 0
	for _, b := range res.Buckets {
		status := "reproduced+verified"
		if !b.Reproduced {
			status = "NOT reproduced"
			code = 1
		} else if !b.Verified {
			status = "reproduced (unverified)"
		}
		fmt.Printf("  %-24s %s (%d iterations)\n", b.App, status, b.Iterations)
	}
	os.Exit(code)
}

func runNode(fapps []fleet.App, name, coordinator string, workers int, journal *telemetry.Journal, log *os.File) {
	node, err := cluster.NewNode(cluster.NodeOptions{
		Name:        name,
		Coordinator: coordinator,
		Apps:        fapps,
		Workers:     workers,
		Tracer:      telemetry.NewTracer(0),
		Log:         log,
	})
	journal.Log(telemetry.LevelInfo, "erd", "node starting",
		telemetry.A("name", name), telemetry.A("coordinator", coordinator))
	if err != nil {
		fatal(err)
	}
	if err := node.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("erd: node %s triaging for %s (%d workers, %d apps)\n",
		name, coordinator, workers, len(fapps))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	node.Close()
	fmt.Printf("erd: node %s stopped (resolved %d, leases lost %d)\n",
		name, node.Resolved(), node.LeasesLost())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "erd:", err)
	os.Exit(1)
}
