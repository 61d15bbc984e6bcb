package prod

import (
	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// Recorder is the one production recording path (§3.1: one always-on
// trace buffer per application). It runs one execution at a time,
// optionally traced into a ring it owns: the ring is reset for every
// traced run and reallocated only when the requested capacity changes.
// The zero value is ready; a Recorder is not safe for concurrent use.
type Recorder struct {
	ring *pt.Ring
}

// Run executes mod's entry function once on w under the scheduler
// seed. A traced run records into the recorder's ring of capacity
// ringSize (<= 0 selects pt.DefaultRingSize) and returns it finished;
// the next traced run overwrites it, so callers copy out what they
// keep (Ring.Bytes, pt.Decode and the trace archive all copy) or Ship
// it. Untraced runs return a nil ring.
func (r *Recorder) Run(mod *ir.Module, entry string, w *vm.Workload, seed int64, traced bool, ringSize int) (*vm.Result, *pt.Ring) {
	if !traced {
		return vm.New(mod, vm.Config{Input: w, Seed: seed}).Run(entry), nil
	}
	if ringSize <= 0 {
		ringSize = pt.DefaultRingSize
	}
	if r.ring == nil || r.ring.Cap() != ringSize {
		r.ring = pt.NewRing(ringSize)
	} else {
		r.ring.Reset()
	}
	enc := pt.NewEncoder(r.ring)
	res := vm.New(mod, vm.Config{Input: w, Seed: seed, Tracer: enc}).Run(entry)
	enc.Finish()
	return res, r.ring
}

// Ship hands the ring of the last traced run to the caller, who owns
// it from then on; the next traced run records into a fresh ring.
func (r *Recorder) Ship() *pt.Ring {
	ring := r.ring
	r.ring = nil
	return ring
}

// Record runs mod's main function once on w, traced into a ring of
// the default capacity, and returns the decoded (possibly truncated)
// trace with the run's result, whether or not the run failed.
func (r *Recorder) Record(mod *ir.Module, w *vm.Workload, seed int64) (*pt.Trace, *vm.Result, error) {
	res, ring := r.Run(mod, "main", w, seed, true, pt.DefaultRingSize)
	tr, err := pt.Decode(ring)
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}
