// Package prod simulates the production deployment of Fig. 2 for the
// efficiency experiments (§5.3): it runs application workloads under
// (a) no monitoring, (b) ER's hardware tracing plus ptwrite data
// recording, and (c) rr-style full record/replay, and converts the
// observed event counts into runtime overhead percentages through a
// calibrated cost model.
//
// Cost model calibration. The VM's cycle model charges each dynamic
// instruction its class cost (internal/vm). Monitoring adds:
//
//   - ER: PTByteCost cycles per trace byte actually written — the
//     memory-bandwidth cost of the PT packet stream, the dominant
//     term of Intel PT's <1% overhead — plus the ptwrite instruction
//     cost already counted by the VM for instrumented binaries.
//   - rr: RRInputCost cycles per intercepted input (the ~µs syscall
//     interception/copy detour rr pays at every read), RRInputByteCost
//     per payload byte, and a serialization penalty of RRSerialFactor
//     × base cycles per additional thread, modelling rr's single-core
//     execution of multithreaded programs.
//
// The constants are calibrated so the shape of Fig. 6 holds (ER well
// under the 10% production boundary with ~0.3% typical; rr tens of
// percent, worst on syscall-heavy and multithreaded applications);
// absolute percentages are not meaningful beyond that shape.
package prod

import (
	"math"

	"execrecon/internal/ir"
	"execrecon/internal/vm"
)

// CostModel holds the monitoring cost constants (cycles).
type CostModel struct {
	PTByteCost      float64
	RRInputCost     float64
	RRInputByteCost float64
	RRSerialFactor  float64
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		PTByteCost:      0.03,
		RRInputCost:     150,
		RRInputByteCost: 1.2,
		RRSerialFactor:  0.5,
	}
}

// Sample is one run's overhead measurement.
type Sample struct {
	BaseCycles  int64
	ExtraCycles float64
	TraceBytes  uint64
	OverheadPct float64
}

// Summary aggregates runs (mean and standard error, as Fig. 6
// reports).
type Summary struct {
	MeanPct   float64
	StderrPct float64
	Samples   []Sample
}

func summarize(samples []Sample) Summary {
	s := Summary{Samples: samples}
	if len(samples) == 0 {
		return s
	}
	var sum float64
	for _, x := range samples {
		sum += x.OverheadPct
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, x := range samples {
		d := x.OverheadPct - mean
		sq += d * d
	}
	s.MeanPct = mean
	if len(samples) > 1 {
		s.StderrPct = math.Sqrt(sq/float64(len(samples)-1)) / math.Sqrt(float64(len(samples)))
	}
	return s
}

// WorkloadFunc supplies the workload and scheduler seed of run i.
type WorkloadFunc func(i int) (*vm.Workload, int64)

// Runner measures monitoring overhead.
type Runner struct {
	Model CostModel
	// Runs per measurement (paper: 10).
	Runs int
	// RingSize for ER tracing (default 64 MB).
	RingSize int

	rec Recorder
}

// NewRunner returns a Runner with the default model and 10 runs.
func NewRunner() *Runner {
	return &Runner{Model: DefaultCostModel(), Runs: 10}
}

func (r *Runner) runs() int {
	if r.Runs <= 0 {
		return 10
	}
	return r.Runs
}

// MeasureER measures ER's monitoring overhead: the instrumented
// module under PT-style tracing versus the pristine module without
// monitoring. Per §5.3 the instrumented module should be the one of
// the final reproduction iteration (the one recording the most data).
func (r *Runner) MeasureER(pristine, instrumented *ir.Module, w WorkloadFunc) Summary {
	if instrumented == nil {
		instrumented = pristine
	}
	var samples []Sample
	for i := 0; i < r.runs(); i++ {
		wl, seed := w(i)
		base, _ := r.rec.Run(pristine, "main", wl.Clone(), seed, false, 0)
		traced, ring := r.rec.Run(instrumented, "main", wl.Clone(), seed, true, r.RingSize)
		extra := float64(traced.Stats.Cycles-base.Stats.Cycles) +
			float64(ring.Written())*r.Model.PTByteCost
		if extra < 0 {
			extra = 0
		}
		samples = append(samples, Sample{
			BaseCycles:  base.Stats.Cycles,
			ExtraCycles: extra,
			TraceBytes:  ring.Written(),
			OverheadPct: 100 * extra / float64(base.Stats.Cycles),
		})
	}
	return summarize(samples)
}

// MeasureRR measures the record/replay baseline's overhead on the
// pristine module.
func (r *Runner) MeasureRR(pristine *ir.Module, w WorkloadFunc) Summary {
	var samples []Sample
	for i := 0; i < r.runs(); i++ {
		wl, seed := w(i)
		base := vm.New(pristine, vm.Config{Input: wl.Clone(), Seed: seed}).Run("main")
		st := base.Stats
		extra := float64(st.Inputs)*r.Model.RRInputCost +
			float64(st.InputBits/8)*r.Model.RRInputByteCost
		if st.Threads > 1 {
			extra += float64(st.Cycles) * r.Model.RRSerialFactor * float64(st.Threads-1)
		}
		samples = append(samples, Sample{
			BaseCycles:  st.Cycles,
			ExtraCycles: extra,
			OverheadPct: 100 * extra / float64(st.Cycles),
		})
	}
	return summarize(samples)
}

// SensitivityBufferSizes reproduces the §5.3 observation that ring
// buffer capacity does not change recording overhead (the stream is
// written once regardless); it returns the mean overhead per size.
func (r *Runner) SensitivityBufferSizes(pristine, instrumented *ir.Module, w WorkloadFunc, sizes []int) map[int]float64 {
	out := make(map[int]float64, len(sizes))
	saved := r.RingSize
	for _, sz := range sizes {
		r.RingSize = sz
		out[sz] = r.MeasureER(pristine, instrumented, w).MeanPct
	}
	r.RingSize = saved
	return out
}
