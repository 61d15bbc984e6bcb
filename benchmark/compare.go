package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and the share by which it may worsen.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, found from
// either the root or the benchmark directory.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// runCompare prints, for each workload and end-to-end metric, the
// medians and quartiles of the parent's and the change's runs and a
// verdict. It exits 1 on any regression, or when the change fails a
// larger share of its bugs than the parent.
func runCompare(parentPath, changePath string, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -compare needs BENCHMARK.json: %v\n", err)
		return 2
	}
	parent, err := readArtifact(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	change, err := readArtifact(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	bad := false
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\tverdict")
	for _, w := range workloads {
		p, c := runsOf(parent, w.name), runsOf(change, w.name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		pf, cf := failedShare(p), failedShare(c)
		if cf > pf {
			bad = true
			fmt.Fprintf(tw, "%s\tfailed share\t%.4g\t%.4g\t\t\tregressed\n", w.name, pf, cf)
		}
		for _, m := range sp.EndToEnd {
			pv, cv := valuesOf(p, m.Name), valuesOf(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", w.name, m.Name)
				continue
			}
			verdict := classify(pv, cv, m.Bound, m.Better == "lower")
			if verdict == "regressed" {
				bad = true
			}
			pq, cq := quartiles(pv), quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
				100*relChange(pq[1], cq[1]), 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

// runsOf returns a workload's runs ordered by seed, so the i-th runs of
// two sides pair up when both used the same seeds.
func runsOf(a artifact, workload string) []runRecord {
	var out []runRecord
	for _, r := range a.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func valuesOf(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(runs []runRecord) float64 {
	var failed, attempted float64
	for _, r := range runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}

// relChange is (c - p) / |p|, with 0 when both are 0.
func relChange(p, c float64) float64 {
	switch {
	case p != 0:
		return (c - p) / math.Abs(p)
	case c == 0:
		return 0
	default:
		return math.Copysign(math.Inf(1), c)
	}
}

// classify judges one metric on one workload. Where the parent's
// quartile spread is wider than the bound, the result is unresolved
// unless every change run beats every parent run. Otherwise a median
// worse by more than the bound is a regression, and a gain needs the
// change to win nine tenths of the run pairs (ties count for neither)
// with medians further apart than the parent's quartile spread.
func classify(p, c []float64, bound float64, lowerBetter bool) string {
	sign := 1.0 // sign*(x-y) < 0 means x is better than y
	if !lowerBetter {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	pq, cq := quartiles(p), quartiles(c)
	pm, cm := pq[1], cq[1]
	iqr := pq[2] - pq[0]

	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	pairs := len(p)
	if len(c) < pairs {
		pairs = len(c)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	gain := better(cm, pm) && 10*wins >= 9*pairs && math.Abs(cm-pm) > iqr

	switch {
	case relChange(pm, pm+iqr) > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case sign*relChange(pm, cm) > bound:
		return "regressed"
	case gain:
		return "improved"
	default:
		return "unchanged"
	}
}

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method of Python's statistics.quantiles (n=4).
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
