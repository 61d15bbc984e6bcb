package solver

import (
	"fmt"
	"runtime"
	"slices"
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
	// ResultUnknown: the solver exhausted its step budget — the
	// "solver timeout" that ER interprets as a symbolic execution
	// stall.
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
	// Validate re-evaluates the original constraints under the
	// model and fails loudly on mismatch. Cheap; on by default via
	// DefaultOptions.
	Validate bool
	// Stop, when set, cancels in-flight solves promptly: it is
	// observed on every budget spend (each CDCL decision, conflict,
	// and Tseitin gate). A canceled solve returns ResultUnknown.
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

// workspaces recycles SAT workspaces across Solve calls and Solver
// snapshots. A symex engine issues only a few dozen queries, so a
// workspace per Solver would rarely be reused; the free list lets
// every query in the process grow the same few arenas instead of
// allocating its own. Unlike a sync.Pool, a garbage collection does
// not empty it, so a query after a collection does not regrow every
// arena and watch list. It keeps at most 2×GOMAXPROCS workspaces: a
// goroutine that is solving holds its query's workspace and its
// Solver's snapshot.
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
	if len(workspaces.free) < 2*runtime.GOMAXPROCS(0) {
		workspaces.free = append(workspaces.free, ws)
	}
}

// Solver decides conjunctions of bitvector/array constraints built
// with a shared expr.Builder. Every Solve call answers, and counts its
// steps, exactly as a fresh solve of its constraints would.
//
// A Solver keeps a snapshot of the SAT workspace as it stood right
// after blasting the last query's rewritten constraints. A symex
// engine's path constraint only grows, so the next query's rewritten
// constraints usually begin with the snapshot's; that query starts
// from a copy of the snapshot and blasts only what is new. A Solver is
// not safe for concurrent use.
type Solver struct {
	b    *expr.Builder
	opts Options
	last Stats

	elim arrayElim
	bl   blaster
	pure []*expr.Expr // scratch for the rewritten constraints

	// snap holds the blasted prefix: the rewritten constraints in
	// prefix, which cost prefixSteps to blast and left the first mark
	// nodes in bl's memo. An empty prefix means no snapshot.
	snap        *sat
	prefix      []*expr.Expr
	prefixSteps int64
	mark        int
	reused      bool // the last query started from the snapshot
}

// New returns a Solver over builder b.
func New(b *expr.Builder, opts Options) *Solver {
	s := &Solver{b: b, opts: opts}
	s.elim = *newArrayElim(b, nil)
	return s
}

// LastStats returns statistics for the most recent Solve call.
func (s *Solver) LastStats() Stats { return s.last }

// Release returns the snapshot workspace to the free list. A later
// Solve blasts from scratch.
func (s *Solver) Release() {
	if s.snap != nil {
		putWorkspace(s.snap)
		s.snap = nil
	}
	s.dropSnapshot()
}

func (s *Solver) dropSnapshot() {
	s.prefix = s.prefix[:0]
	s.prefixSteps, s.mark = 0, 0
}

// Solve decides the conjunction of cs. On ResultSat the returned
// assignment satisfies every constraint; on other results it is nil.
func (s *Solver) Solve(cs []*expr.Expr) (Result, *expr.Assignment, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return s.solve(cs, ws)
}

// solve is Solve on the SAT workspace ws, which it overwrites before
// blasting the Ackermann lemmas.
func (s *Solver) solve(cs []*expr.Expr, ws *sat) (Result, *expr.Assignment, error) {
	start := time.Now()
	budget := &Budget{MaxSteps: s.opts.MaxSteps, Stop: s.opts.Stop}
	s.last, s.reused = Stats{}, false
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
	elim := &s.elim
	elim.restart(budget)
	pure, err := elim.run(remaining, s.pure[:0])
	s.last.ArrayElim = time.Since(t)
	if err != nil {
		if err == errBudget {
			return ResultUnknown, nil, nil
		}
		return ResultUnknown, nil, err
	}
	s.pure = pure

	// Stage 2: bit blasting. The rewritten constraints extend the
	// snapshot; the lemmas go into a copy of it in ws, because lemma
	// order interleaves by array and so never forms a prefix of a
	// later query.
	t = time.Now()
	bl := &s.bl
	core, unsat := s.blastPrefix(pure[:len(remaining)], budget)
	if bl.err == nil && !unsat {
		ws.copyFrom(core)
		core, bl.s = ws, ws
		unsat = s.blastAll(pure[len(remaining):])
	}
	s.last.Blast = time.Since(t)
	if bl.err == errBudget {
		return ResultUnknown, nil, nil
	}
	if bl.err != nil {
		return ResultUnknown, nil, bl.err
	}
	if unsat {
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

// blastPrefix blasts the rewritten constraints cs into the snapshot
// workspace, which it returns, and makes them the snapshot. When the
// snapshot's constraints begin cs and the budget can pay what blasting
// them cost, it charges those steps in one spend and blasts only the
// rest. Otherwise it blasts cs from scratch, so a stall stops exactly
// where a fresh blast would. It reports whether a constraint was the
// constant false.
func (s *Solver) blastPrefix(cs []*expr.Expr, budget *Budget) (*sat, bool) {
	if s.snap == nil {
		s.snap = getWorkspace()
	}
	bl := &s.bl
	n := len(s.prefix)
	s.reused = n > 0 && n <= len(cs) && slices.Equal(cs[:n], s.prefix) && budget.fits(s.prefixSteps)
	if s.reused {
		bl.rewind(s.mark)
		bl.s, bl.budget, s.snap.budget = s.snap, budget, budget
		bl.spend(s.prefixSteps)
	} else {
		s.dropSnapshot()
		s.snap.reset(budget)
		bl.restart(s.snap, budget)
		n = 0
	}
	used := budget.Used()
	unsat := s.blastAll(cs[n:])
	if bl.err != nil || unsat {
		s.dropSnapshot()
		return s.snap, unsat
	}
	s.prefix = append(s.prefix, cs[n:]...)
	s.prefixSteps += budget.Used() - used
	s.mark = len(bl.done)
	return s.snap, false
}

// blastAll asserts cs in order. It stops at a blasting error, and at
// a constant-false constraint, which it reports.
func (s *Solver) blastAll(cs []*expr.Expr) bool {
	for _, c := range cs {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			return true
		}
		s.bl.assert(c)
		if s.bl.err != nil {
			return false
		}
	}
	return false
}

// extractModel builds the satisfying assignment from the SAT model:
// named bitvector variables read back from their bit literals, and
// array models rebuilt from the Ackermann read terms (read-term index
// expressions are pure bitvector expressions over model variables, so
// they evaluate directly). Internal $rd read variables are dropped
// from the visible model.
func extractModel(bl *blaster, elim *arrayElim) (*expr.Assignment, error) {
	asn := expr.NewAssignment()
	for _, e := range bl.done {
		if e.Kind == expr.KVar {
			asn.Vars[e.Name] = bl.modelValue(bl.bits[e.ID()])
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
