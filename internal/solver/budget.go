package solver

import "sync/atomic"

// Cancel is a goroutine-safe cancellation flag: one goroutine trips it
// (a pipeline abort) while another is metering a solve against it.
//
// The zero value is usable; a nil *Cancel never reports canceled.
type Cancel struct {
	flag atomic.Bool
}

// NewCancel returns an untripped cancellation flag.
func NewCancel() *Cancel { return &Cancel{} }

// Cancel trips the flag. Safe for concurrent use; idempotent.
func (c *Cancel) Cancel() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Canceled reports whether the flag has been tripped.
func (c *Cancel) Canceled() bool { return c != nil && c.flag.Load() }

// Budget meters solver work. Work units are abstract "steps": one SAT
// decision is 1, one conflict 50, one Tseitin gate 1, one node created
// during array elimination 1. A Budget with zero MaxSteps is
// unlimited.
//
// The paper configures a 30-second solver timeout (§4). Here that
// timeout is a step budget: MaxSteps decides every stall, so a
// reconstruction stalls on the same query on any machine and under
// any load.
//
// A Budget is safe to share across goroutines: its accounting uses
// atomics, and Stop gives callers a prompt cancellation path that is
// observed on every spend, so Pipeline.Abort can stop a solve from
// another goroutine.
type Budget struct {
	MaxSteps int64
	// Stop, when non-nil, is checked on every spend, so cancellation
	// lands within one solver step.
	Stop *Cancel

	used      atomic.Int64
	exhausted atomic.Bool
	canceled  atomic.Bool
}

// NewBudget returns a budget limited to maxSteps (0 = unlimited).
func NewBudget(maxSteps int64) *Budget { return &Budget{MaxSteps: maxSteps} }

// spend consumes n steps and reports whether the budget still holds.
// Cancellation is observed on every call.
func (b *Budget) spend(n int64) bool {
	if b == nil {
		return true
	}
	if b.Stop.Canceled() {
		b.canceled.Store(true)
		b.exhausted.Store(true)
		return false
	}
	if b.exhausted.Load() {
		return false
	}
	if used := b.used.Add(n); b.MaxSteps > 0 && used > b.MaxSteps {
		b.exhausted.Store(true)
		return false
	}
	return true
}

// fits reports whether n more steps would keep the budget within
// MaxSteps, without spending them.
func (b *Budget) fits(n int64) bool {
	return b.MaxSteps == 0 || b.used.Load()+n <= b.MaxSteps
}

// Used returns the steps consumed so far.
func (b *Budget) Used() int64 { return b.used.Load() }

// Exhausted reports whether the budget was exceeded (or canceled).
func (b *Budget) Exhausted() bool { return b.exhausted.Load() }

// Canceled reports whether the budget stopped because its Stop flag
// tripped, as opposed to running out of steps.
func (b *Budget) Canceled() bool { return b.canceled.Load() }
