// Package fleet is the concurrent trace-ingestion and failure-triage
// subsystem that sits between the simulated production fleet
// (internal/prod machines shipping PT trace blobs) and the ER
// analysis loop (internal/core pipelines).
//
// Data flow:
//
//	machines ──Emit──▶ Ingest (sharded bounded MPSC queue with
//	                   backpressure)
//	         ──drain─▶ Triage (signature-hash bucketing, dedup, and
//	                   every occurrence banked in the trace archive)
//	         ──new bucket─▶ Scheduler (worker pool; one independent
//	                   ER pipeline per bucket, fed event-driven by
//	                   that bucket's reoccurrences replayed from the
//	                   archive; re-instrumented modules are rolled
//	                   back out to the machines)
//
// The archive is the one delivery path: a cluster coordinator
// (Options.Remote) replaces the scheduler and its triage nodes replay
// the same records.
//
// Everything observable is exported through Fleet.Snapshot: queue
// depths, drop counters, bucket populations, and per-bucket pipeline
// progress.
package fleet

import (
	"hash/fnv"

	"execrecon/internal/vm"
)

// SigHash returns the canonical signature hash of a failure: a 64-bit
// FNV-1a over exactly the fields vm.Failure.SameSignature compares
// (kind, program counter, and call stack). Equal signatures hash
// equally; distinct signatures may collide, which triage resolves by
// chaining buckets and re-checking SameSignature.
func SigHash(f *vm.Failure) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put32 := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:4])
	}
	put32(uint32(f.Kind))
	h.Write([]byte(f.Func))
	h.Write([]byte{0})
	put32(uint32(f.InstrID))
	for _, fn := range f.Stack {
		h.Write([]byte(fn))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
