package solver

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"execrecon/internal/expr"
)

// Result is the outcome of a Solve call.
type Result int

const (
	// ResultSat: a model satisfying all constraints was found.
	ResultSat Result = iota
	// ResultUnsat: the constraints are unsatisfiable.
	ResultUnsat
	// ResultUnknown: the solver exhausted its budget or deadline —
	// the "solver timeout" that ER interprets as a symbolic
	// execution stall.
	ResultUnknown
)

func (r Result) String() string {
	switch r {
	case ResultSat:
		return "sat"
	case ResultUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Options configures a Solve call.
type Options struct {
	// MaxSteps bounds abstract solver work; 0 means unlimited.
	MaxSteps int64
	// Timeout bounds wall-clock time; 0 means unlimited.
	Timeout time.Duration
	// Validate re-evaluates the original constraints under the
	// model and fails loudly on mismatch. Cheap; on by default via
	// DefaultOptions.
	Validate bool
	// Stop, when set, cancels in-flight solves promptly: it is
	// observed on every budget spend (each CDCL decision, conflict,
	// and Tseitin gate), not just at the deadline-check cadence. A
	// canceled solve returns ResultUnknown.
	Stop *Cancel
}

// DefaultOptions returns options with validation enabled and no
// limits.
func DefaultOptions() Options { return Options{Validate: true} }

// Stats describes the work a Solve call performed.
type Stats struct {
	Steps        int64
	SATVars      int
	SATClauses   int
	Propagations int64
	Conflicts    int64
	Decisions    int64
	Elapsed      time.Duration
	// ArrayElim, Blast and CDCL are the wall time of each solver
	// stage. A stage cut short by the budget still reports its time;
	// fast paths and model extraction belong to none, so the three
	// sum to at most Elapsed.
	ArrayElim time.Duration
	Blast     time.Duration
	CDCL      time.Duration
}

// workspaces recycles SAT workspaces across Solve calls. A symex
// engine issues only a couple of queries, so a workspace per Solver
// would rarely be reused; the free list lets every query in the
// process grow the same few arenas instead of allocating its own.
// Unlike a sync.Pool, a garbage collection does not empty it, so a
// query after a collection does not regrow every arena and watch
// list. It keeps at most GOMAXPROCS workspaces, one per goroutine
// that can be solving at once.
var workspaces struct {
	mu   sync.Mutex
	free []*sat
}

// getWorkspace returns the most recently released workspace, or a new
// one when none is free.
func getWorkspace() *sat {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	n := len(workspaces.free)
	if n == 0 {
		return new(sat)
	}
	ws := workspaces.free[n-1]
	workspaces.free[n-1] = nil
	workspaces.free = workspaces.free[:n-1]
	return ws
}

// putWorkspace releases ws for the next Solve, or drops it when the
// free list is full.
func putWorkspace(ws *sat) {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	if len(workspaces.free) < runtime.GOMAXPROCS(0) {
		workspaces.free = append(workspaces.free, ws)
	}
}

// Solver decides conjunctions of bitvector/array constraints built
// with a shared expr.Builder. Each Solve call is independent.
type Solver struct {
	b    *expr.Builder
	opts Options
	last Stats
}

// New returns a Solver over builder b.
func New(b *expr.Builder, opts Options) *Solver {
	return &Solver{b: b, opts: opts}
}

// LastStats returns statistics for the most recent Solve call.
func (s *Solver) LastStats() Stats { return s.last }

// Solve decides the conjunction of cs. On ResultSat the returned
// assignment satisfies every constraint; on other results it is nil.
func (s *Solver) Solve(cs []*expr.Expr) (Result, *expr.Assignment, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return s.solve(cs, ws)
}

// solve is Solve on the SAT workspace ws, which it resets before
// blasting.
func (s *Solver) solve(cs []*expr.Expr, ws *sat) (Result, *expr.Assignment, error) {
	start := time.Now()
	budget := &Budget{MaxSteps: s.opts.MaxSteps, Timeout: s.opts.Timeout, Stop: s.opts.Stop}
	s.last = Stats{}
	// Stats are populated on *every* exit path via defer — including
	// budget-exhausted ResultUnknown returns, which are exactly the
	// solves ER's stall detection keys off. (They used to be recorded
	// only on the happy path, so stalled queries reported zero
	// SATVars/SATClauses and CDCL counters.)
	var core *sat
	defer func() {
		s.last.Steps = budget.Used()
		s.last.Elapsed = time.Since(start)
		if core != nil {
			s.last.SATVars = core.numVars
			s.last.SATClauses = core.problems
			s.last.Propagations = core.propagations
			s.last.Conflicts = core.conflicts
			s.last.Decisions = core.decisions
		}
	}()

	// Fast paths on trivially decided constraints.
	remaining := make([]*expr.Expr, 0, len(cs))
	for _, c := range cs {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			return ResultUnsat, nil, nil
		}
		if !c.IsBool() {
			return ResultUnknown, nil, fmt.Errorf("solver: non-boolean constraint %s", c.Kind)
		}
		remaining = append(remaining, c)
	}
	if len(remaining) == 0 {
		return ResultSat, expr.NewAssignment(), nil
	}

	// Stage 1: array elimination.
	t := time.Now()
	elim := newArrayElim(s.b, budget)
	pure, err := elim.run(remaining)
	s.last.ArrayElim = time.Since(t)
	if err != nil {
		if err == errBudget {
			return ResultUnknown, nil, nil
		}
		return ResultUnknown, nil, err
	}

	// Stage 2: bit blasting.
	t = time.Now()
	core = ws
	core.reset(budget)
	bl := newBlaster(core, budget)
	unsatEarly := false
	for _, c := range pure {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			unsatEarly = true
			break
		}
		bl.assert(c)
		if bl.err != nil {
			break
		}
	}
	s.last.Blast = time.Since(t)
	if bl.err == errBudget {
		return ResultUnknown, nil, nil
	}
	if bl.err != nil {
		return ResultUnknown, nil, bl.err
	}
	if unsatEarly {
		return ResultUnsat, nil, nil
	}

	// Stage 3: CDCL.
	t = time.Now()
	verdict := core.solve()
	s.last.CDCL = time.Since(t)
	switch verdict {
	case satUnsat:
		return ResultUnsat, nil, nil
	case satUnknown:
		return ResultUnknown, nil, nil
	}

	// Stage 4: model extraction.
	asn, err := extractModel(bl, elim)
	if err != nil {
		return ResultUnknown, nil, err
	}
	if s.opts.Validate {
		ok, err := asn.Satisfies(remaining)
		if err != nil {
			return ResultUnknown, nil, fmt.Errorf("solver: model validation error: %w", err)
		}
		if !ok {
			return ResultUnknown, nil, fmt.Errorf("solver: internal error: model does not satisfy constraints")
		}
	}
	return ResultSat, asn, nil
}

// extractModel builds the satisfying assignment from the SAT model:
// named bitvector variables read back from their bit literals, and
// array models rebuilt from the Ackermann read terms (read-term index
// expressions are pure bitvector expressions over model variables, so
// they evaluate directly). Internal $rd read variables are dropped
// from the visible model.
func extractModel(bl *blaster, elim *arrayElim) (*expr.Assignment, error) {
	asn := expr.NewAssignment()
	for name := range bl.vars {
		if v, ok := bl.modelVar(name); ok {
			asn.Vars[name] = v
		}
	}
	for name, rs := range elim.reads {
		av := asn.Arrays[name]
		if av == nil {
			av = &expr.ArrayValue{Elems: make(map[uint64]uint64)}
			asn.Arrays[name] = av
		}
		for _, r := range rs {
			iv, err := asn.Eval(r.idx)
			if err != nil {
				return nil, err
			}
			vv, err := asn.Eval(r.v)
			if err != nil {
				return nil, err
			}
			av.Elems[iv] = vv
		}
	}
	for name := range asn.Vars {
		if strings.HasPrefix(name, "$rd") {
			delete(asn.Vars, name)
		}
	}
	return asn, nil
}

// MayBeTrue reports whether cond can be true together with the path
// constraint pc.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	res, _, err := s.Solve(append(append([]*expr.Expr{}, pc...), cond))
	if err != nil {
		return false, err
	}
	switch res {
	case ResultSat:
		return true, nil
	case ResultUnsat:
		return false, nil
	}
	return false, ErrTimeout
}

// MustBeTrue reports whether cond is implied by the path constraint.
func (s *Solver) MustBeTrue(pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	may, err := s.MayBeTrue(pc, s.b.BoolNot(cond))
	if err != nil {
		return false, err
	}
	return !may, nil
}

// ErrTimeout is returned by helper predicates when the budget or
// deadline is exhausted before a verdict.
var ErrTimeout = fmt.Errorf("solver: timeout")
