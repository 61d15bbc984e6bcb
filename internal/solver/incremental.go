package solver

import (
	"fmt"
	"time"

	"execrecon/internal/absint"
	"execrecon/internal/expr"
	"execrecon/internal/telemetry"
)

// Incremental is a persistent solving session: where Solver re-runs
// array elimination, bit blasting, and CDCL from scratch on every
// call, an Incremental keeps all three stages' state alive across
// queries, so a call over a constraint set that is ~90% shared with
// the previous one (the shape of every query ER's reconstruction loop
// issues, within an iteration and across failure reoccurrences) pays
// only for the new ~10%. It is the solver-side analog of an inference
// stack's KV cache.
//
// The session works in four persistent layers:
//
//   - An owned expr.Builder into which every incoming constraint is
//     translated with Builder.Import, memoized by stable node IDs
//     (expr.StableID). The per-iteration Builder churn of the ER loop
//     therefore costs O(new nodes), not O(constraint set).
//   - A persistent array-elimination pass whose rewrite caches live as
//     long as the session and whose Ackermann functional-consistency
//     closure is emitted incrementally (arrayElim.consistencyDelta).
//     Consistency constraints are consequences of the array axioms, so
//     they are asserted into the SAT core permanently as lemmas.
//   - A persistent Tseitin blaster: each distinct constraint is lowered
//     to CNF exactly once per session, and its definitional clauses
//     stay in the core forever (they define fresh gate literals and are
//     valid regardless of which constraints a given query asserts).
//   - A persistent CDCL core queried through assumptions
//     (sat.solveAssume): the query's constraint literals are passed as
//     assumption decisions rather than clauses, so nothing a query
//     asserts ever needs retracting, the variable map survives, and
//     every learnt clause remains valid for all later queries.
//
// Because constraints enter the core only as assumptions, a query
// whose constraint set *shrinks* or *changes arbitrarily* (e.g.
// re-instrumentation concretized a symbolic value and the next
// iteration's path constraint replaced a symbolic term with an
// equality) needs no invalidation: the stale cached CNF simply goes
// unassumed. The remaining ways a cached result could be wrong —
// stable-ID hash collisions in the import memo, or an internal
// inconsistency — are caught by model validation (on by default), and
// any such query falls back to a fresh from-scratch Solve and poisons
// the session so the next query rebuilds it; FreshFallbacks counts
// those. Session memory is bounded by Options.MaxSessionNodes: when
// the owned builder outgrows it the session resets (Resets counts),
// trading cached work for bounded residency — which is also why fleet
// buckets can hold one session each and drop it on retirement.
//
// An Incremental is not safe for concurrent use; drive each session
// from a single goroutine (one pipeline = one session).
type Incremental struct {
	opts Options

	b    *expr.Builder
	elim *arrayElim
	core *sat
	bl   *blaster

	// pending holds Ackermann consistency lemmas emitted by the
	// elimination stage but not yet blasted+asserted (budget ran out
	// mid-flush); they are retried under the next query's budget.
	pending []*expr.Expr

	// absLemmas queues universal facts from the abstract pre-discharge
	// pass (internal/absint) awaiting permanent assertion; absSeen
	// dedups them by stable ID so a recurring subterm's bounds are
	// asserted once per session.
	absLemmas []*expr.Expr
	absSeen   map[uint64]bool

	poisoned bool

	last  Stats
	stats IncStats

	// met caches the session's telemetry counters (lazily resolved
	// from Options.Metrics; nil when telemetry is off).
	met *incMetrics
}

// incMetrics holds the registry series an Incremental session updates
// once per Solve, by delta. All sessions sharing one registry resolve
// the same series, so the er_solver_* counters are fleet-wide sums.
type incMetrics struct {
	sat, unsat, unknown *telemetry.Counter
	seen, reused        *telemetry.Counter
	blasted, lemmas     *telemetry.Counter
	fallbacks, resets   *telemetry.Counter
	steps               *telemetry.Counter
	seconds             *telemetry.Histogram

	// Abstract pre-discharge (er_absint_*).
	absDischarged, absLemmas, absFacts *telemetry.Counter
}

func newIncMetrics(reg *telemetry.Registry) *incMetrics {
	if reg == nil {
		return nil
	}
	return &incMetrics{
		sat:     reg.Counter("er_solver_solves_total", "incremental solver queries by verdict", telemetry.L("verdict", "sat")),
		unsat:   reg.Counter("er_solver_solves_total", "incremental solver queries by verdict", telemetry.L("verdict", "unsat")),
		unknown: reg.Counter("er_solver_solves_total", "incremental solver queries by verdict", telemetry.L("verdict", "unknown")),
		seen:    reg.Counter("er_solver_constraints_seen_total", "non-trivial top-level constraints across queries"),
		reused:  reg.Counter("er_solver_constraints_reused_total", "constraints answered from session CNF caches"),
		blasted: reg.Counter("er_solver_constraints_blasted_total", "constraints lowered to CNF for the first time"),
		lemmas:  reg.Counter("er_solver_lemmas_total", "Ackermann consistency lemmas asserted"),
		fallbacks: reg.Counter("er_solver_fresh_fallbacks_total",
			"queries answered by a from-scratch solve after validation failure"),
		resets:  reg.Counter("er_solver_session_resets_total", "session rebuilds (poisoning or node bound)"),
		steps:   reg.Counter("er_solver_steps_total", "abstract solver steps spent"),
		seconds: reg.Histogram("er_solver_query_seconds", "wall time per incremental solver query", nil),

		absDischarged: reg.Counter("er_absint_discharged_total", "queries decided by the abstract pre-discharge pass"),
		absLemmas:     reg.Counter("er_absint_lemmas_total", "universal absint lemmas asserted permanently"),
		absFacts:      reg.Counter("er_absint_facts_total", "query-refined absint facts passed as assumptions"),
	}
}

// report accumulates the query's deltas (pre-Solve stats vs current)
// into the shared registry.
func (inc *Incremental) report(before IncStats, res Result, err error, elapsed time.Duration) {
	m := inc.met
	if m == nil {
		return
	}
	switch {
	case err != nil || res == ResultUnknown:
		m.unknown.Inc()
	case res == ResultSat:
		m.sat.Inc()
	default:
		m.unsat.Inc()
	}
	st := inc.stats
	m.seen.Add(st.ConstraintsSeen - before.ConstraintsSeen)
	m.reused.Add(st.ConstraintsReused - before.ConstraintsReused)
	m.blasted.Add(st.ConstraintsBlasted - before.ConstraintsBlasted)
	m.lemmas.Add(st.LemmasAsserted - before.LemmasAsserted)
	m.fallbacks.Add(st.FreshFallbacks - before.FreshFallbacks)
	m.resets.Add(st.Resets - before.Resets)
	m.steps.Add(st.Steps - before.Steps)
	m.seconds.ObserveDuration(elapsed)
	m.absDischarged.Add(st.AbsintDischarged - before.AbsintDischarged)
	m.absLemmas.Add(st.AbsintLemmas - before.AbsintLemmas)
	m.absFacts.Add(st.AbsintFacts - before.AbsintFacts)
}

// IncStats aggregates an Incremental session's lifetime counters —
// the cache/reuse picture surfaced in fleet.Snapshot and the
// solvecache experiment.
type IncStats struct {
	// Solves counts Solve calls; Sat/Unsat/Unknown their verdicts.
	Solves  int64
	Sat     int64
	Unsat   int64
	Unknown int64
	// ConstraintsSeen counts non-trivial top-level constraints across
	// all queries; ConstraintsReused the ones whose CNF was already
	// cached from an earlier query (no elimination or blasting work),
	// ConstraintsBlasted the ones lowered for the first time.
	ConstraintsSeen    int64
	ConstraintsReused  int64
	ConstraintsBlasted int64
	// ImportHits/ImportMisses are the stable-ID translation memo's
	// counters: hits are expression nodes recognized from earlier
	// queries (or earlier ER iterations), misses are newly imported.
	ImportHits   int64
	ImportMisses int64
	// LemmasAsserted counts Ackermann consistency constraints
	// permanently added to the core.
	LemmasAsserted int64
	// FreshFallbacks counts queries answered by a from-scratch Solve
	// because a cached result failed validation; Resets counts session
	// rebuilds (poisoning or MaxSessionNodes).
	FreshFallbacks int64
	Resets         int64
	// AbsintDischarged counts queries the abstract pre-discharge pass
	// decided without touching the CDCL core; AbsintLemmas universal
	// absint facts asserted permanently; AbsintFacts query-refined
	// facts passed as extra assumptions.
	AbsintDischarged int64
	AbsintLemmas     int64
	AbsintFacts      int64
	// FastSats counts queries answered by extending the previous
	// query's satisfying trail without search (the model-extension fast
	// path); TrailShrinks counts the subset of those that first had to
	// retract part of the held trail to flip assumptions the previous
	// model assigned the wrong way.
	FastSats     int64
	TrailShrinks int64
	// Steps/Elapsed accumulate solver work across all queries.
	Steps   int64
	Elapsed time.Duration
	// Nodes is the session builder's current interned-node count and
	// LearntClauses the CDCL core's current learnt database size —
	// the session's resident "cache size".
	Nodes         int
	LearntClauses int
}

// DefaultMaxSessionNodes bounds a session's interned expression nodes
// before it resets (Options.MaxSessionNodes zero value).
const DefaultMaxSessionNodes = 1 << 20

// NewIncremental returns an empty session with the given per-query
// options (MaxSteps/Timeout/Validate apply to each Solve call).
func NewIncremental(opts Options) *Incremental {
	inc := &Incremental{opts: opts}
	inc.reset()
	inc.stats.Resets = 0 // the initial build is not a reset
	return inc
}

// reset discards all session state: builder, caches, CNF, and learnt
// clauses. The next Solve rebuilds from scratch.
func (inc *Incremental) reset() {
	if inc.core != nil {
		// The fast-path counters live on the CDCL core; carry them
		// across the rebuild so Stats stays cumulative.
		inc.stats.FastSats += inc.core.fastSats
		inc.stats.TrailShrinks += inc.core.trailShrinks
	}
	inc.b = expr.NewBuilder()
	inc.elim = newArrayElim(inc.b, nil)
	inc.core = newSAT(nil)
	inc.bl = newBlaster(inc.core, nil)
	inc.pending = nil
	// Queued and already-asserted absint lemmas die with the old
	// builder and core; the seen-set must go too, or the rebuilt core
	// would never regain them.
	inc.absLemmas = nil
	inc.absSeen = nil
	inc.poisoned = false
	inc.stats.Resets++
}

// Reset drops every cached stage result and learnt clause, returning
// the session to its freshly constructed state. Callers use it when
// they know the workload changed wholesale; Solve also invokes it on
// poisoning and when the session outgrows Options.MaxSessionNodes.
func (inc *Incremental) Reset() { inc.reset() }

// LastStats returns statistics for the most recent Solve call, in the
// same shape as Solver.LastStats. SATVars/SATClauses report the
// session core's totals; the CDCL counters are per-call deltas.
func (inc *Incremental) LastStats() Stats { return inc.last }

// Stats returns the session's cumulative counters.
func (inc *Incremental) Stats() IncStats {
	s := inc.stats
	s.ImportHits, s.ImportMisses = inc.b.ImportStats()
	s.Nodes = inc.b.NumNodes()
	s.LearntClauses = len(inc.core.learnts)
	s.FastSats += inc.core.fastSats
	s.TrailShrinks += inc.core.trailShrinks
	return s
}

// maxNodes returns the session-size bound.
func (inc *Incremental) maxNodes() int {
	if inc.opts.MaxSessionNodes > 0 {
		return inc.opts.MaxSessionNodes
	}
	return DefaultMaxSessionNodes
}

// attach points every persistent stage at the current query's budget
// and clears sticky budget errors left by an exhausted earlier query.
func (inc *Incremental) attach(budget *Budget) {
	inc.elim.budget = budget
	inc.bl.budget = budget
	inc.core.budget = budget
	inc.elim.clearBudgetErr()
	inc.bl.clearBudgetErr()
}

// Solve decides the conjunction of cs, reusing every stage result the
// session has cached from earlier queries. The verdict contract is
// identical to Solver.Solve: on ResultSat the returned assignment
// satisfies every constraint (validated when Options.Validate is set),
// ResultUnsat means the conjunction is unsatisfiable, ResultUnknown
// that the per-query budget or deadline ran out.
func (inc *Incremental) Solve(cs []*expr.Expr) (Result, *expr.Assignment, error) {
	start := time.Now()
	budget := &Budget{MaxSteps: inc.opts.MaxSteps, Timeout: inc.opts.Timeout, Stop: inc.opts.Stop}
	if inc.met == nil && inc.opts.Metrics != nil {
		inc.met = newIncMetrics(inc.opts.Metrics)
	}
	before := inc.stats
	inc.stats.Solves++
	if inc.poisoned || inc.b.NumNodes() > inc.maxNodes() {
		inc.reset()
	}
	inc.attach(budget)
	inc.last = Stats{}
	prop0, conf0, dec0 := inc.core.propagations, inc.core.conflicts, inc.core.decisions

	res, asn, err := inc.solveQuery(cs)

	inc.last.Steps += budget.Used()
	inc.last.Elapsed = time.Since(start)
	inc.last.SATVars = inc.core.numVars
	inc.last.SATClauses = len(inc.core.clauses)
	inc.last.Propagations = inc.core.propagations - prop0
	inc.last.Conflicts = inc.core.conflicts - conf0
	inc.last.Decisions = inc.core.decisions - dec0
	inc.stats.Steps += budget.Used()
	inc.stats.Elapsed += inc.last.Elapsed
	switch {
	case err != nil || res == ResultUnknown:
		inc.stats.Unknown++
	case res == ResultSat:
		inc.stats.Sat++
	default:
		inc.stats.Unsat++
	}
	inc.report(before, res, err, inc.last.Elapsed)
	return res, asn, err
}

// solveQuery is the budget-attached body of Solve.
func (inc *Incremental) solveQuery(cs []*expr.Expr) (Result, *expr.Assignment, error) {
	// Import into the session builder (memoized by stable IDs) and
	// fast-path trivially decided constraints.
	imported := make([]*expr.Expr, 0, len(cs))
	for _, c := range cs {
		ic := inc.b.Import(c)
		if ic.IsTrue() {
			continue
		}
		if ic.IsFalse() {
			return ResultUnsat, nil, nil
		}
		if !ic.IsBool() {
			return ResultUnknown, nil, fmt.Errorf("solver: non-boolean constraint %s", ic.Kind)
		}
		imported = append(imported, ic)
	}
	if len(imported) == 0 {
		return ResultSat, expr.NewAssignment(), nil
	}

	// Stage 0: abstract pre-discharge (interval + known-bits domains
	// over the imported constraints). Unsat is proven by
	// over-approximation, Sat is concretely validated inside
	// AnalyzeQuery. Undecided queries contribute universal lemmas
	// (asserted permanently below — they hold for every assignment)
	// and query-refined facts (assumed only for this query: the
	// session's cached variable literals must stay free, so bits are
	// never pinned here, unlike the one-shot blaster).
	var absFacts []*expr.Expr
	if inc.opts.Absint {
		aq := absint.AnalyzeQuery(inc.b, imported, absint.QueryOptions{WantModel: true, WantLemmas: true})
		switch aq.Verdict {
		case absint.VerdictUnsat:
			inc.stats.AbsintDischarged++
			inc.last.AbsintDischarged = true
			return ResultUnsat, nil, nil
		case absint.VerdictSat:
			inc.stats.AbsintDischarged++
			inc.last.AbsintDischarged = true
			return ResultSat, aq.Model, nil
		}
		if inc.absSeen == nil {
			inc.absSeen = make(map[uint64]bool)
		}
		for _, l := range aq.Lemmas {
			if inc.absSeen[l.StableID()] {
				continue
			}
			inc.absSeen[l.StableID()] = true
			inc.absLemmas = append(inc.absLemmas, l)
		}
		absFacts = varFactExprs(inc.b, imported, aq.Vars, maxAssumedFacts)
		inc.stats.AbsintFacts += int64(len(absFacts))
	}

	// Stage 1: array elimination, cached across queries.
	pure := make([]*expr.Expr, 0, len(imported))
	for _, ic := range imported {
		p := inc.elim.rewrite(ic)
		if inc.elim.err == errBudget {
			return ResultUnknown, nil, nil
		}
		if inc.elim.err != nil {
			return inc.freshFallback(imported, inc.elim.err)
		}
		pure = append(pure, p)
	}
	// New Ackermann consistency lemmas go to the pending queue first,
	// so a budget failure between emission and assertion cannot lose
	// them.
	lemmas, lemErr := inc.elim.consistencyDelta()
	inc.pending = append(inc.pending, lemmas...)
	if lemErr == errBudget {
		return ResultUnknown, nil, nil
	}

	// Absint universal lemmas join the permanent queue through the
	// same array-elimination rewrite as everything else. Their select
	// subterms are shared with the constraints, so no new read terms
	// (hence no missed consistency axioms) can appear here.
	for len(inc.absLemmas) > 0 {
		p := inc.elim.rewrite(inc.absLemmas[0])
		if inc.elim.err == errBudget {
			return ResultUnknown, nil, nil
		}
		if inc.elim.err != nil {
			return inc.freshFallback(imported, inc.elim.err)
		}
		inc.absLemmas = inc.absLemmas[1:]
		if p.IsTrue() {
			continue
		}
		inc.pending = append(inc.pending, p)
		inc.stats.AbsintLemmas++
	}

	// Stage 2a: assert pending lemmas permanently (they are valid
	// consequences of the array axioms, independent of any query).
	for len(inc.pending) > 0 {
		l, ok := inc.bl.boolLit(inc.pending[0])
		if !ok {
			if inc.bl.err == errBudget {
				return ResultUnknown, nil, nil
			}
			return inc.freshFallback(imported, inc.bl.err)
		}
		if !inc.core.addClause([]lit{l}) {
			// A valid lemma can never make the database unsat; if it
			// did, the cache is inconsistent.
			return inc.freshFallback(imported, fmt.Errorf("solver: lemma contradicts session database"))
		}
		inc.pending = inc.pending[1:]
		inc.stats.LemmasAsserted++
	}

	// Stage 2b: lower the query's constraints, reusing cached CNF, and
	// collect their literals as CDCL assumptions.
	assumps := make([]lit, 0, len(pure))
	for _, p := range pure {
		if p.IsTrue() {
			continue
		}
		if p.IsFalse() {
			return ResultUnsat, nil, nil
		}
		inc.stats.ConstraintsSeen++
		if inc.bl.cached(p) {
			inc.stats.ConstraintsReused++
		} else {
			inc.stats.ConstraintsBlasted++
		}
		l, ok := inc.bl.boolLit(p)
		if !ok {
			if inc.bl.err == errBudget {
				return ResultUnknown, nil, nil
			}
			return inc.freshFallback(imported, inc.bl.err)
		}
		assumps = append(assumps, l)
	}
	// Query-refined absint facts ride along as extra assumptions:
	// implied by the constraint set, so verdict-preserving, but they
	// hand the CDCL core unit-propagatable bounds up front.
	for _, fe := range absFacts {
		l, ok := inc.bl.boolLit(fe)
		if !ok {
			if inc.bl.err == errBudget {
				return ResultUnknown, nil, nil
			}
			return inc.freshFallback(imported, inc.bl.err)
		}
		assumps = append(assumps, l)
	}

	// Stage 3: CDCL under assumptions, learnt clauses persisting.
	switch inc.core.solveAssume(assumps) {
	case satUnsat:
		return ResultUnsat, nil, nil
	case satUnknown:
		return ResultUnknown, nil, nil
	}

	// Stage 4: model extraction and validation. The model covers every
	// variable the session ever saw; stale entries are harmless (the
	// caller looks names up) and current-query entries are checked
	// below.
	asn, err := extractModel(inc.bl, inc.elim)
	if err != nil {
		return inc.freshFallback(imported, err)
	}
	if inc.opts.Validate {
		ok, err := asn.Satisfies(imported)
		if err != nil || !ok {
			// A cached assumption was invalidated (or the import memo
			// collided): answer this query from scratch and rebuild
			// the session before the next one.
			return inc.freshFallback(imported, err)
		}
	}
	return ResultSat, asn, nil
}

// maxAssumedFacts caps query-refined absint facts passed as extra
// assumptions: beyond this the assumption-literal overhead outweighs
// the propagation head start.
const maxAssumedFacts = 16

// varFactExprs renders the query-refined per-variable facts as boolean
// expressions over b: upper/lower interval bounds and known-bit
// patterns for each variable of cs, capped at maxN.
func varFactExprs(b *expr.Builder, cs []*expr.Expr, facts map[string]absint.Val, maxN int) []*expr.Expr {
	if len(facts) == 0 {
		return nil
	}
	var out []*expr.Expr
	seen := make(map[string]bool)
	for _, c := range cs {
		for _, v := range expr.VarsOf(c) {
			if v.Kind != expr.KVar || seen[v.Name] {
				continue
			}
			seen[v.Name] = true
			f, ok := facts[v.Name]
			if !ok || f.IsBottom() {
				continue
			}
			w := v.Width
			m := ^uint64(0)
			if w < 64 {
				m = 1<<w - 1
			}
			if f.Hi < m && len(out) < maxN {
				out = append(out, b.Ule(v, b.Const(f.Hi, w)))
			}
			if f.Lo > 0 && len(out) < maxN {
				out = append(out, b.Ule(b.Const(f.Lo, w), v))
			}
			if km := f.Mask & m; km != 0 && len(out) < maxN {
				out = append(out, b.Eq(b.And(v, b.Const(km, w)), b.Const(f.Bits&m, w)))
			}
			if len(out) >= maxN {
				return out
			}
		}
	}
	return out
}

// freshFallback answers the query with a from-scratch Solver over the
// session builder and poisons the session so the next query rebuilds
// it. It is the safety net for invalidated cache state; the
// differential property tests exist to show it (all but) never fires.
func (inc *Incremental) freshFallback(imported []*expr.Expr, cause error) (Result, *expr.Assignment, error) {
	inc.stats.FreshFallbacks++
	inc.poisoned = true
	_ = cause // retained for debuggability; the fresh verdict stands on its own
	fresh := New(inc.b, inc.opts)
	res, asn, err := fresh.Solve(imported)
	// Attribute the fresh solve's work to this query.
	fs := fresh.LastStats()
	inc.last.Steps += fs.Steps
	inc.stats.Steps += fs.Steps
	return res, asn, err
}
