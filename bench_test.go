// Benchmarks regenerating the paper's evaluation artifacts. One
// benchmark per table/figure (see DESIGN.md's per-experiment index);
// run them all with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmarks report the paper's headline metrics (occurrence
// counts, overhead percentages, recovery accuracy) through b.ReportMetric
// so the regenerated numbers appear alongside timing.
package er_test

import (
	"io"
	"testing"

	"execrecon"
	"execrecon/internal/apps"
	"execrecon/internal/bench"
	"execrecon/internal/core"
	"execrecon/internal/prod"
	"execrecon/internal/vm"
)

// BenchmarkTable1 reproduces each of the 13 bugs through the full ER
// loop (Table 1: #Instr, #Occur, Symbex Time).
func BenchmarkTable1(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			mod, err := a.Module()
			if err != nil {
				b.Fatal(err)
			}
			var occ int
			for i := 0; i < b.N; i++ {
				rep, err := core.Reproduce(bench.ReproConfig(a, mod))
				if err != nil || !rep.Reproduced || !rep.Verified {
					b.Fatalf("reproduction failed: %v (%+v)", err, rep)
				}
				occ = rep.Occurrences
			}
			b.ReportMetric(float64(occ), "occurrences")
		})
	}
}

// BenchmarkFig5 measures shepherded symbolic execution progress under
// the three recording configurations of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5("")
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != 3 {
			b.Fatalf("series: %d", len(r.Series))
		}
		// The defining shape: each iteration's recorded values cut the
		// solver work of the same prefix.
		if !(r.Series[0].Steps > r.Series[1].Steps && r.Series[1].Steps > r.Series[2].Steps) {
			b.Fatalf("fig5 shape violated: %d / %d / %d solver steps",
				r.Series[0].Steps, r.Series[1].Steps, r.Series[2].Steps)
		}
		b.ReportMetric(float64(r.Series[0].Total.Microseconds())/float64(r.Series[2].Total.Microseconds()), "speedup-iter2")
	}
}

// BenchmarkFig6ER measures ER's always-on control-flow tracing
// overhead per application (left bars of Fig. 6; the full measurement
// including final-iteration ptwrite instrumentation is `cmd/erbench
// -exp fig6`, which reports 0.38% average).
func BenchmarkFig6ER(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			mod, err := a.Module()
			if err != nil {
				b.Fatal(err)
			}
			runner := prod.NewRunner()
			runner.Runs = 3
			var mean float64
			for i := 0; i < b.N; i++ {
				s := runner.MeasureER(mod, nil, func(i int) (*vm.Workload, int64) {
					return a.Benign(i), int64(i) + 1
				})
				mean = s.MeanPct
			}
			b.ReportMetric(mean, "overhead-%")
		})
	}
}

// BenchmarkFig6RR measures the record/replay baseline's overhead per
// application (right bars of Fig. 6).
func BenchmarkFig6RR(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			mod, err := a.Module()
			if err != nil {
				b.Fatal(err)
			}
			runner := prod.NewRunner()
			runner.Runs = 3
			var mean float64
			for i := 0; i < b.N; i++ {
				s := runner.MeasureRR(mod, func(i int) (*vm.Workload, int64) {
					return a.Benign(i), int64(i) + 1
				})
				mean = s.MeanPct
			}
			b.ReportMetric(mean, "overhead-%")
		})
	}
}

// BenchmarkRandomSelection runs the §5.2 key-selection vs random
// recording comparison.
func BenchmarkRandomSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunRandomBaseline(0)
		var keyOK, rndOK int
		for _, r := range rows {
			if r.KeyOK {
				keyOK++
			}
			if r.NeedsData && r.RandomOK {
				rndOK++
			}
		}
		if keyOK < len(rows) {
			b.Fatalf("key selection failed on %d apps", len(rows)-keyOK)
		}
		b.ReportMetric(float64(rndOK), "random-successes")
	}
}

// BenchmarkAccuracy runs the §5.2 accuracy comparison (generated
// inputs vs originals).
func BenchmarkAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAccuracy()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.SameFailure || !r.SameBranchHist {
				b.Fatalf("accuracy violated for %s: %+v", r.App, r)
			}
		}
	}
}

// BenchmarkReptRecovery measures REPT-style recovery accuracy vs
// trace length (§2.3/§5.2).
func BenchmarkReptRecovery(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunReptAccuracy([]int{50, 1000, 20000})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].IncorrectPct
	}
	b.ReportMetric(last, "incorrect-%-at-20k")
}

// BenchmarkMimic runs the §5.4 invariant-localization case study.
func BenchmarkMimic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunMimic()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.RootCauseRank != 1 {
				b.Fatalf("%s: root cause ranked #%d", r.App, r.RootCauseRank)
			}
		}
	}
}

// BenchmarkQuickstartPipeline measures the full public-API pipeline on
// the quickstart scenario (compile → fail → reconstruct → verify).
func BenchmarkQuickstartPipeline(b *testing.B) {
	src := `
func main() int {
	int x = input32("x");
	int y = input32("y");
	assert(x * 2 + y != 100, "target");
	return 0;
}`
	mod, err := er.Compile("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := er.NewWorkload().Add("x", 30).Add("y", 40)
		rep, err := er.Reproduce(mod, w, 1, er.Options{Log: io.Discard})
		if err != nil || !rep.Reproduced {
			b.Fatal("reproduction failed")
		}
	}
}

// BenchmarkTraceRecording measures pure monitoring throughput: VM
// execution with the PT-like encoder attached.
func BenchmarkTraceRecording(b *testing.B) {
	a := apps.ByName("Libpng-2004-0597")
	mod, err := a.Module()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, res, err := er.RecordTrace(mod, a.Benign(i%5), 1)
		if err != nil || res.Failure != nil {
			b.Fatalf("run failed: %v %v", err, res.Failure)
		}
		_ = tr
	}
}
