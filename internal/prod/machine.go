package prod

import (
	"context"
	"sync/atomic"
	"time"

	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// TraceMsg is one shipped failure report: the raw PT ring blob, the
// failure signature, and the run metadata a triage layer needs to
// bucket and analyze the occurrence. The ring is shipped undecoded —
// decoding is the consumer's job, as in a real fleet where machines
// only copy the hardware buffer out.
type TraceMsg struct {
	// App names the application the machine runs. Triage interns
	// buckets by (app, signature) — distinct applications can share a
	// signature — and uses it to route deployment rollouts.
	App string
	// Machine is the producing machine's id.
	Machine int
	// Version is the deployment version the failing run executed.
	// Consumers discard occurrences recorded on out-of-date binaries
	// after a re-instrumentation rollout.
	Version int
	// Ring is the raw trace blob (nil when tracing was disabled).
	Ring *pt.Ring
	// Failure is the failure signature of the run.
	Failure *vm.Failure
	// Seed is the scheduler seed of the failing run.
	Seed int64
	// Instrs is the dynamic instruction count of the failing run.
	Instrs int64
}

// TraceSink accepts shipped trace messages. Emit reports whether the
// message was accepted (false means it was dropped at the boundary —
// e.g. a bounded ingest queue overflowing under a drop policy, or a
// fleet that has shut down).
type TraceSink interface {
	Emit(msg *TraceMsg) bool
}

// Deployment is a versioned module rollout. Version 0 is the pristine
// program; each ER re-instrumentation bumps the version.
type Deployment struct {
	Module  *ir.Module
	Version int
}

// Machine simulates one production box: it runs its application's
// workload mix in a loop under always-on PT-style tracing and ships a
// TraceMsg to the sink whenever a run fails. Deployments can be
// swapped concurrently (atomically) while the machine serves, the
// analog of a fleet-wide binary rollout.
type Machine struct {
	// App names the application (copied into every TraceMsg).
	App string
	// ID identifies the machine within the fleet.
	ID int
	// Entry is the entry function (default "main").
	Entry string
	// Gen supplies the workload and scheduler seed of run i. Runs
	// may be benign; only failing runs are shipped.
	Gen func(i int) (*vm.Workload, int64)
	// Sink receives failing runs' trace messages.
	Sink TraceSink
	// RingSize is the per-run trace buffer capacity (default 64 KB —
	// fleet machines ship small blobs, not the 64 MB analysis ring;
	// a blob that overflows is dropped by triage with accounting, so
	// size this to the application's failing-run trace length).
	RingSize int
	// Pace is an optional delay between runs, modelling production
	// request spacing (0 = run back-to-back).
	Pace time.Duration
	// Trace enables control-flow tracing (fleet default). When
	// false the machine only observes failures (deferred-tracing
	// fleets) and ships messages with a nil Ring.
	Trace bool
	// Overhead, when set, receives every run's wall time attributed
	// to (App, deployment version, traced?) — the raw material of the
	// recording-overhead SLO accounting. Nil disables (no timing
	// syscalls on the run path).
	Overhead *telemetry.Overhead

	dep     atomic.Pointer[Deployment]
	runs    atomic.Int64
	fails   atomic.Int64
	shipped atomic.Int64
	dropped atomic.Int64
}

// MachineRingSize is the default per-run trace buffer of a fleet
// machine.
const MachineRingSize = 64 << 10

// Deploy installs a new versioned module; the next run picks it up.
// Deploying a zero Deployment (nil Module) retires the machine: its
// serve loop exits after the current run — how the fleet winds down
// an application whose failure has been reconstructed.
func (m *Machine) Deploy(d Deployment) { m.dep.Store(&d) }

// Current returns the machine's active deployment (zero Deployment if
// none was installed).
func (m *Machine) Current() Deployment {
	if d := m.dep.Load(); d != nil {
		return *d
	}
	return Deployment{}
}

// MachineStats is a point-in-time view of a machine's counters.
type MachineStats struct {
	Runs    int64 // workload runs executed
	Fails   int64 // runs that failed
	Shipped int64 // trace messages accepted by the sink
	Dropped int64 // trace messages rejected by the sink
}

// Stats returns the machine's counters.
func (m *Machine) Stats() MachineStats {
	return MachineStats{
		Runs:    m.runs.Load(),
		Fails:   m.fails.Load(),
		Shipped: m.shipped.Load(),
		Dropped: m.dropped.Load(),
	}
}

// Serve runs workloads until ctx is cancelled. It is safe to run many
// machines concurrently against one sink (the sink is the MPSC
// boundary).
func (m *Machine) Serve(ctx context.Context) {
	entry := m.Entry
	if entry == "" {
		entry = "main"
	}
	ringSize := m.RingSize
	if ringSize <= 0 {
		ringSize = MachineRingSize
	}
	var rec Recorder // one ring reused across benign runs, shipped on failure
	for i := 0; ctx.Err() == nil; i++ {
		d := m.Current()
		if d.Module == nil {
			return // nothing deployed
		}
		w, seed := m.Gen(i)
		var runStart time.Time
		if m.Overhead != nil {
			runStart = time.Now()
		}
		res, _ := rec.Run(d.Module, entry, w, seed, m.Trace, ringSize)
		if m.Overhead != nil {
			m.Overhead.RecordRun(m.App, d.Version, m.Trace, time.Since(runStart))
		}
		m.runs.Add(1)
		if res.Failure != nil {
			m.fails.Add(1)
			msg := &TraceMsg{
				App:     m.App,
				Machine: m.ID,
				Version: d.Version,
				Ring:    rec.Ship(), // nil when untraced; the next traced run gets a fresh ring
				Failure: res.Failure,
				Seed:    seed,
				Instrs:  res.Stats.Instrs,
			}
			if m.Sink.Emit(msg) {
				m.shipped.Add(1)
			} else {
				m.dropped.Add(1)
			}
		}
		if m.Pace > 0 {
			// Plain sleep: cheaper than a timer+select per run, and
			// Pace is sub-millisecond in practice, so cancellation
			// latency (checked at the top of the loop) stays small.
			time.Sleep(m.Pace)
		}
	}
}
