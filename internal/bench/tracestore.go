package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// TracestoreRow is one app's archive measurements: the storage cost
// of archiving K reoccurrences of its failure (raw vs delta-stored
// bytes, ingest throughput) and the verdict-parity check (reproduction
// through the store must match the in-memory pipeline).
type TracestoreRow struct {
	App string
	// Occur is the number of reoccurrence traces archived.
	Occur int
	// RawBytes/StoredBytes are the archive totals; Ratio their
	// quotient (the delta-compression win).
	RawBytes    int64
	StoredBytes int64
	Ratio       float64
	// IngestMBps is the append throughput over the raw stream bytes.
	IngestMBps float64
	// MemReproduced/MemVerified is the in-memory pipeline verdict;
	// StoreReproduced/StoreVerified the verdict with every trace read
	// through the store's streaming reader.
	MemReproduced   bool
	MemVerified     bool
	StoreReproduced bool
	StoreVerified   bool
	// Parity is true when the two verdicts agree.
	Parity     bool
	FailReason string
}

// TracestoreOptions configures the archive experiment.
type TracestoreOptions struct {
	// Occurrences is how many reoccurrence traces to archive per app
	// for the compression measurement (default 8).
	Occurrences int
	// Dir roots the per-app store directories (default: a temp dir,
	// removed afterwards).
	Dir string
	// Only restricts the run to the named apps (nil = all 13).
	Only []string
	// Log receives progress lines.
	Log io.Writer
}

// RunTracestore measures the trace archive on all Table 1 apps:
// per-app compression ratio and ingest throughput over K archived
// reoccurrences of each failure, plus verdict parity between the
// in-memory reproduction pipeline and one whose every trace round-
// trips through the store.
func RunTracestore(opts TracestoreOptions) ([]TracestoreRow, error) {
	k := opts.Occurrences
	if k <= 0 {
		k = 8
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "erbench-tracestore-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	var rows []TracestoreRow
	for _, a := range apps.All() {
		if len(opts.Only) > 0 && !contains(opts.Only, a.Name) {
			continue
		}
		rows = append(rows, runTracestoreApp(a, k, filepath.Join(dir, a.Name), opts))
	}
	return rows, nil
}

func runTracestoreApp(a *apps.App, k int, dir string, opts TracestoreOptions) TracestoreRow {
	row := TracestoreRow{App: a.Name, Occur: k}
	mod, err := a.Module()
	if err != nil {
		row.FailReason = err.Error()
		return row
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "tracestore: %s: archiving %d reoccurrences\n", a.Name, k)
	}

	// Phase 1 — storage cost: archive k reoccurrence blobs. Each blob
	// is what a production ring holds at failure time: the window of
	// execution preceding the failure — a handful of benign requests
	// and then the failing one, all traced into the same ring (always-
	// on tracing records whatever ran, not just the failing request).
	// Reoccurrences of the same failure carry near-identical windows,
	// which is exactly the redundancy the delta encoder exploits.
	const window = 4 // benign requests preceding each failure
	store, err := tracestore.Open(filepath.Join(dir, "compress"), tracestore.Options{})
	if err != nil {
		row.FailReason = err.Error()
		return row
	}
	defer store.Close()
	var appendTime time.Duration
	ring := pt.NewRing(pt.DefaultRingSize) // reset per occurrence, not reallocated
	for i := 0; i < k; i++ {
		ring.Reset()
		enc := pt.NewEncoder(ring)
		if a.Benign != nil {
			for j := 0; j < window; j++ {
				vm.New(mod, vm.Config{Input: a.Benign(j), Seed: a.Seed, Tracer: enc}).Run("main")
			}
		}
		res := vm.New(mod, vm.Config{Input: a.Failing(), Seed: a.Seed, Tracer: enc}).Run("main")
		if res.Failure == nil {
			row.FailReason = fmt.Sprintf("failing workload did not fail (occurrence %d)", i)
			return row
		}
		enc.Finish()
		start := time.Now()
		if _, err := store.AppendRing(res.Failure, tracestore.Meta{
			App: a.Name, Machine: i, Seed: a.Seed, Instrs: res.Stats.Instrs,
		}, ring); err != nil {
			row.FailReason = err.Error()
			return row
		}
		appendTime += time.Since(start)
	}
	st := store.Stats()
	row.RawBytes = st.RawBytes
	row.StoredBytes = st.StoredBytes
	row.Ratio = st.Ratio()
	if appendTime > 0 {
		row.IngestMBps = float64(st.RawBytes) / (1 << 20) / appendTime.Seconds()
	}

	// Phase 2 — verdict parity: full ER reproduction in memory vs
	// with every trace read back through the archive's streaming
	// reader.
	budget := a.QueryBudget
	if budget == 0 {
		budget = DefaultQueryBudget
	}
	cfg := core.Config{
		Module: mod,
		Symex:  symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		Log:    opts.Log,
	}
	memCfg := cfg
	memCfg.Gen = &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed}
	memRep, memErr := core.Reproduce(memCfg)

	parityStore, err := tracestore.Open(filepath.Join(dir, "parity"), tracestore.Options{})
	if err != nil {
		row.FailReason = err.Error()
		return row
	}
	defer parityStore.Close()
	storeCfg := cfg
	storeCfg.Source = &tracestore.Source{
		Store: parityStore,
		Gen:   &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed},
		App:   a.Name,
	}
	storeRep, storeErr := core.Reproduce(storeCfg)

	if memRep != nil {
		row.MemReproduced, row.MemVerified = memRep.Reproduced, memRep.Verified
	}
	if storeRep != nil {
		row.StoreReproduced, row.StoreVerified = storeRep.Reproduced, storeRep.Verified
	}
	row.Parity = row.MemReproduced == row.StoreReproduced && row.MemVerified == row.StoreVerified
	if memErr != nil && storeErr == nil || memErr == nil && storeErr != nil {
		row.Parity = false
	}
	if !row.Parity {
		row.FailReason = fmt.Sprintf("verdict divergence: mem(err=%v) store(err=%v)", memErr, storeErr)
	}
	return row
}

// RenderTracestore prints the archive experiment.
func RenderTracestore(w io.Writer, rows []TracestoreRow) {
	header := []string{"Application-BugID", "#Occur", "Raw B", "Stored B", "Ratio", "Ingest MB/s", "Verdict (mem)", "Verdict (store)", "Parity"}
	var out [][]string
	var ratioSum float64
	var ratioN int
	allParity := true
	verdict := func(rep, ver bool) string {
		switch {
		case rep && ver:
			return "yes (verified)"
		case rep:
			return "yes (unverified)"
		default:
			return "NO"
		}
	}
	for _, r := range rows {
		if r.FailReason != "" && r.Ratio == 0 {
			out = append(out, []string{r.App, "-", "-", "-", "-", "-", "-", "-", "ERR: " + r.FailReason})
			allParity = false
			continue
		}
		ratioSum += r.Ratio
		ratioN++
		parity := "yes"
		if !r.Parity {
			parity = "NO"
			allParity = false
		}
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.Occur),
			fmt.Sprintf("%d", r.RawBytes),
			fmt.Sprintf("%d", r.StoredBytes),
			fmt.Sprintf("%.1fx", r.Ratio),
			fmt.Sprintf("%.1f", r.IngestMBps),
			verdict(r.MemReproduced, r.MemVerified),
			verdict(r.StoreReproduced, r.StoreVerified),
			parity,
		})
	}
	table(w, header, out)
	if ratioN > 0 {
		fmt.Fprintf(w, "mean compression ratio: %.1fx over %d apps; verdict parity: %v\n",
			ratioSum/float64(ratioN), ratioN, allParity)
	}
}

// TracestoreParity reports whether every row reproduced with verdicts
// identical through the store (the experiment's acceptance bit).
func TracestoreParity(rows []TracestoreRow) bool {
	for _, r := range rows {
		if !r.Parity {
			return false
		}
	}
	return len(rows) > 0
}
