package solver

import (
	"sync"
	"testing"
	"time"

	"execrecon/internal/expr"
)

// TestBudgetSharedAccounting is the regression test for the shared-
// budget data race: spend used to mutate used/exhausted/lastCheck with
// plain loads and stores, so one budget metered from several goroutines
// was a race (and could both lose steps and over-grant past
// MaxSteps). Run under -race, this test fails on the pre-fix code; the
// accounting assertions additionally pin exactness.
func TestBudgetSharedAccounting(t *testing.T) {
	const workers, per = 8, 10000

	// Unlimited budget: concurrent spends must account exactly.
	b := &Budget{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.spend(1)
			}
		}()
	}
	wg.Wait()
	if got := b.Used(); got != workers*per {
		t.Errorf("shared budget accounted %d steps, want %d", got, workers*per)
	}

	// Bounded budget: exactly MaxSteps spends may be granted in total,
	// no matter how the workers interleave.
	const max = 5000
	b = NewBudget(max)
	granted := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if b.spend(1) {
					granted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, g := range granted {
		total += g
	}
	if total != max {
		t.Errorf("bounded shared budget granted %d steps, want exactly %d", total, max)
	}
	if !b.Exhausted() {
		t.Error("bounded budget not exhausted after over-subscription")
	}
}

// TestBudgetCancelPrompt checks the explicit cancellation flag: a
// Cancel tripped from another goroutine must deny the very next spend.
func TestBudgetCancelPrompt(t *testing.T) {
	stop := NewCancel()
	b := &Budget{Stop: stop}
	for i := 0; i < 10; i++ {
		if !b.spend(1) {
			t.Fatalf("spend %d denied before cancellation", i)
		}
	}
	tripped := make(chan struct{})
	go func() {
		stop.Cancel()
		close(tripped)
	}()
	<-tripped
	if !stop.Canceled() {
		t.Error("flag not canceled after Cancel")
	}
	if b.spend(1) {
		t.Fatal("spend granted immediately after cancellation")
	}
	if !b.Canceled() {
		t.Error("budget not marked canceled")
	}
	if !b.Exhausted() {
		t.Error("canceled budget not exhausted")
	}
	var zero *Cancel
	if zero.Canceled() {
		t.Error("nil flag reports canceled")
	}
}

// TestSolveCancelPrompt is the regression test for the slow-abort bug:
// cancellation used to be observed only through a wall-clock deadline.
// With Options.Stop wired into every budget spend, canceling an
// in-flight solve of a hard factoring instance must return promptly
// even though the unlimited budget would allow minutes of work.
func TestSolveCancelPrompt(t *testing.T) {
	b := expr.NewBuilder()
	// Non-wrapping factoring: zero-extended 32-bit operands multiplied
	// in 64 bits against a semiprime of two 32-bit primes, so the only
	// models are the genuine integer factorizations. Two traps make
	// weaker instances flaky here: same-width modular multiplication
	// is NOT hard (x*y == c mod 2^w with odd c is satisfied by every
	// odd x), and factors with near-all-ones bit patterns like 2^32-5
	// align with the default decision polarity and propagate straight
	// to a model. With random-bit prime factors the search runs for
	// seconds — far past the cancel.
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	semiprime := uint64(0x9E3779B1) * uint64(0x85EBCA77) // both prime
	hard := []*expr.Expr{
		b.Eq(b.Mul(b.ZExt(x, 64), b.ZExt(y, 64)), b.Const(semiprime, 64)),
		b.Ult(b.Const(2, 32), x),
		b.Ult(b.Const(2, 32), y),
	}
	stop := NewCancel()
	s := New(b, Options{Stop: stop})
	type out struct {
		res Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, _, err := s.Solve(hard)
		done <- out{res, err}
	}()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	stop.Cancel()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("solve: %v", o.err)
		}
		if o.res != ResultUnknown {
			t.Fatalf("canceled solve returned %v, want unknown", o.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not observe cancellation within 5s")
	}
	if lag := time.Since(start); lag > time.Second {
		t.Errorf("cancellation took %v to land, want prompt abort", lag)
	}
}

// TestStatsPopulatedOnEarlyExit is the regression test for the Stats
// under-report bug: budget-exhausted ResultUnknown returns — exactly
// the solves ER's stall detection keys off — used to report zero
// steps, elapsed time, and SAT counters because stats were recorded
// only on the happy path.
func TestStatsPopulatedOnEarlyExit(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	hard := []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(0xdeadbeef, 32)),
		b.Ult(b.Const(2, 32), x),
		b.Ult(b.Const(2, 32), y),
	}
	s := New(b, Options{MaxSteps: 50}) // far too little to finish
	res, _, err := s.Solve(hard)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res != ResultUnknown {
		t.Fatalf("result %v, want unknown under a 50-step budget", res)
	}
	st := s.LastStats()
	if st.Steps == 0 {
		t.Error("Steps not populated on budget-exhausted exit")
	}
	if st.Elapsed == 0 {
		t.Error("Elapsed not populated on budget-exhausted exit")
	}
}
