// Package solver implements the constraint solver used by shepherded
// symbolic execution. It is an SMT-lite solver for quantifier-free
// bitvector and array constraints, in the style of STP: array terms
// are eliminated first (store chains become if-then-else ladders and
// reads from free arrays are Ackermannized), then the resulting pure
// bitvector formula is bit-blasted through a Tseitin transformation to
// CNF and decided by a CDCL SAT solver.
//
// The solver meters its own work (array-elimination nodes, gates,
// propagations, conflicts) against a step budget and a wall-clock
// deadline. Exceeding either yields ResultUnknown — the solver
// "timeout" that ER's stall detection is built on (§4). Crucially, the
// metered cost grows with the two constraint-complexity sources the
// paper identifies (§3.3.1): the length of symbolic write chains and
// the size of the accessed symbolic memory objects. Stalls therefore
// arise here for the paper's stated reasons rather than by fiat.
package solver

// lit is a SAT literal: variable index shifted left once, with the
// low bit set for negated literals. Variable 0 is unused.
type lit uint32

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func (l lit) vindex() int { return int(l >> 1) }
func (l lit) sign() bool  { return l&1 == 1 }
func (l lit) negate() lit { return l ^ 1 }

const litUndef lit = 0

// tribool is an assignment value.
type tribool int8

const (
	tUndef tribool = iota
	tTrue
	tFalse
)

// clause is the header of a disjunction whose literals are
// arena[start : start+size]. learnt marks clauses derived by conflict
// analysis, the only ones reduceLearnts may delete.
type clause struct {
	start  uint32
	size   uint32
	learnt bool
}

// cref names a clause by its index in sat.clauses; noClause is the
// absent reason or conflict.
type cref int32

const noClause cref = -1

// sat is a CDCL SAT solver with two-watched-literal propagation,
// first-UIP learning, VSIDS-style variable activities, and Luby
// restarts.
//
// All clause literals live in one flat arena addressed by clause
// headers, and reset rewinds every slice rather than dropping it, so
// one sat serves query after query (see getWorkspace) and allocates
// only when a query outgrows every earlier one. The zero value is
// ready for reset.
type sat struct {
	arena    []lit
	clauses  []clause // problem and learnt clauses, in creation order
	problems int      // number of problem (non-learnt) clauses
	learnts  []cref
	watches  [][]cref // indexed by lit

	vals     []tribool // indexed by lit; both signs of a var kept in step
	level    []int
	reason   []cref
	activity []float64
	polarity []bool // phase saving
	varInc   float64

	trail    []lit
	trailLim []int
	qhead    int

	heap    []int // binary max-heap of vars by activity
	heapPos []int // var -> heap index, -1 if absent

	seen   []bool
	learnt []lit   // analyze's scratch clause
	marks  []uint8 // reduceLearnts' per-clause marks

	numVars      int
	failed       bool
	propagations int64
	conflicts    int64
	decisions    int64

	budget *Budget
}

// restartBase is the Luby restart unit (conflicts).
const restartBase = 64

// reset empties the solver for a new query metered by budget. Every
// slice, each watch list included, keeps its capacity.
func (s *sat) reset(budget *Budget) {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	*s = sat{
		arena:    s.arena[:0],
		clauses:  s.clauses[:0],
		learnts:  s.learnts[:0],
		watches:  s.watches[:0],
		vals:     s.vals[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		activity: s.activity[:0],
		polarity: s.polarity[:0],
		varInc:   1,
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		heap:     s.heap[:0],
		heapPos:  s.heapPos[:0],
		seen:     s.seen[:0],
		learnt:   s.learnt[:0],
		marks:    s.marks[:0],
		budget:   budget,
	}
	s.newVar() // var 0 placeholder
}

func (s *sat) newVar() int {
	v := s.numVars
	s.numVars++
	s.vals = append(s.vals, tUndef, tUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	// Watch lists past the length were emptied by reset; reslicing
	// over them keeps their capacity.
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	if v != 0 {
		s.heapInsert(v)
	}
	return v
}

// lits returns clause c's literals, aliasing the arena.
func (s *sat) lits(c cref) []lit {
	h := s.clauses[c]
	return s.arena[h.start : h.start+h.size : h.start+h.size]
}

// newClause copies lits into the arena and watches its first two
// literals.
func (s *sat) newClause(lits []lit, learnt bool) cref {
	c := cref(len(s.clauses))
	s.clauses = append(s.clauses, clause{start: uint32(len(s.arena)), size: uint32(len(lits)), learnt: learnt})
	s.arena = append(s.arena, lits...)
	s.watches[lits[0].negate()] = append(s.watches[lits[0].negate()], c)
	s.watches[lits[1].negate()] = append(s.watches[lits[1].negate()], c)
	return c
}

func (s *sat) value(l lit) tribool { return s.vals[l] }

// addClause installs a problem clause at decision level 0; it returns
// false if the clause system is trivially unsatisfiable. lits is
// filtered in place and copied into the arena, so callers may pass a
// scratch slice.
func (s *sat) addClause(lits []lit) bool {
	// Remove duplicate and false literals; detect tautologies and
	// satisfied clauses at level 0. A false return marks the solver
	// permanently failed (unsatisfiable at level 0). Duplicate
	// detection is a linear scan over the kept prefix — clauses here
	// are Tseitin-sized (2-3 literals), and the map this used to
	// allocate per clause dominated blasting time.
	n := 0
outer:
	for _, l := range lits {
		for _, o := range lits[:n] {
			if o == l {
				continue outer
			}
			if o == l.negate() {
				return true // tautology
			}
		}
		switch s.value(l) {
		case tTrue:
			if s.level[l.vindex()] == 0 {
				return true
			}
		case tFalse:
			if s.level[l.vindex()] == 0 {
				continue
			}
		}
		lits[n] = l
		n++
	}
	lits = lits[:n]
	switch len(lits) {
	case 0:
		s.failed = true
		return false
	case 1:
		if s.value(lits[0]) == tFalse {
			s.failed = true
			return false
		}
		if s.value(lits[0]) == tUndef {
			s.uncheckedEnqueue(lits[0], noClause)
		}
		if s.propagate() != noClause {
			s.failed = true
			return false
		}
		return true
	}
	s.newClause(lits, false)
	s.problems++
	return true
}

func (s *sat) uncheckedEnqueue(l lit, from cref) {
	v := l.vindex()
	s.vals[l] = tTrue
	s.vals[l.negate()] = tFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *sat) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting
// clause or noClause.
func (s *sat) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := noClause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if conflict != noClause {
				kept = append(kept, c)
				continue
			}
			cl := s.lits(c)
			// Ensure the false literal is cl[1].
			if cl[0] == p.negate() {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// Clause already satisfied by cl[0]?
			if s.value(cl[0]) == tTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for i := 2; i < len(cl); i++ {
				if s.value(cl[i]) != tFalse {
					cl[1], cl[i] = cl[i], cl[1]
					s.watches[cl[1].negate()] = append(s.watches[cl[1].negate()], c)
					found = true
					break
				}
			}
			if found {
				continue // moved to another watch list
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if s.value(cl[0]) == tFalse {
				conflict = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(cl[0], c)
			}
		}
		s.watches[p] = kept
		if conflict != noClause {
			return conflict
		}
	}
	return noClause
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The
// clause is the solver's scratch buffer, valid until the next call.
func (s *sat) analyze(conflict cref) ([]lit, int) {
	learnt := append(s.learnt[:0], litUndef)
	counter := 0
	var p lit = litUndef
	idx := len(s.trail) - 1
	c := conflict
	for {
		start := 0
		if p != litUndef {
			start = 1
		}
		for _, q := range s.lits(c)[start:] {
			v := q.vindex()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal from trail.
		for !s.seen[s.trail[idx].vindex()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.vindex()
		s.seen[v] = false
		counter--
		c = s.reason[v]
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.negate()
	// Compute backtrack level: max level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].vindex()] > s.level[learnt[maxI].vindex()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].vindex()]
	}
	for _, q := range learnt {
		s.seen[q.vindex()] = false
	}
	s.learnt = learnt
	return learnt, bt
}

func (s *sat) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *sat) decayActivities() { s.varInc /= 0.95 }

func (s *sat) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.vindex()
		s.polarity[v] = !l.sign()
		s.vals[l] = tUndef
		s.vals[l.negate()] = tUndef
		s.reason[v] = noClause
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *sat) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapRemoveMax()
		if s.vals[mkLit(v, false)] == tUndef {
			return v
		}
	}
	return -1
}

// Heap operations (max-heap on activity).

func (s *sat) heapInsert(v int) {
	s.heap = append(s.heap, v)
	s.heapPos[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *sat) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if s.activity[s.heap[p]] >= s.activity[v] {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.activity[s.heap[c+1]] > s.activity[s.heap[c]] {
			c++
		}
		if s.activity[s.heap[c]] <= s.activity[v] {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapRemoveMax() int {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return v
}

// luby returns the i-th element (1-based) of the Luby restart
// sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// satResult mirrors Result for the SAT core.
type satResult int

const (
	satSat satResult = iota
	satUnsat
	satUnknown
)

// solve runs the CDCL loop once over the installed clauses. On
// satSat, vals holds a full model.
func (s *sat) solve() satResult {
	if s.failed {
		return satUnsat
	}
	var restarts int64
	conflictsUntilRestart := luby(1) * restartBase
	var conflictCount int64
	maxLearnts := s.problems/2 + 1000
	for {
		conflict := s.propagate()
		if conflict != noClause {
			s.conflicts++
			conflictCount++
			if s.budget != nil && !s.budget.spend(50) {
				return satUnknown
			}
			if s.decisionLevel() == 0 {
				// Conflict with no decisions: the clause database
				// itself is unsatisfiable.
				s.failed = true
				return satUnsat
			}
			learnt, bt := s.analyze(conflict)
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noClause)
			} else {
				c := s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			continue
		}
		if conflictCount >= conflictsUntilRestart {
			restarts++
			conflictCount = 0
			conflictsUntilRestart = luby(restarts+1) * restartBase
			s.backtrackTo(0)
		}
		if len(s.learnts) > maxLearnts {
			s.reduceLearnts()
			maxLearnts = maxLearnts*11/10 + 100
		}
		if s.budget != nil && !s.budget.spend(1) {
			return satUnknown
		}
		v := s.pickBranchVar()
		if v < 0 {
			return satSat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(mkLit(v, !s.polarity[v]), noClause)
	}
}

// reduceLearnts drops the older half of the learnt clauses, sparing
// binary clauses and clauses that are the reason for a current
// assignment. The arena space of a dropped clause is reclaimed only
// by the next reset.
func (s *sat) reduceLearnts() {
	const (
		locked uint8 = 1
		drop   uint8 = 2
	)
	if n := len(s.clauses); cap(s.marks) >= n {
		s.marks = s.marks[:n]
		clear(s.marks)
	} else {
		s.marks = make([]uint8, n)
	}
	for _, c := range s.reason {
		if c != noClause && s.clauses[c].learnt {
			s.marks[c] = locked
		}
	}
	kept := s.learnts[:0]
	dropped := false
	n := len(s.learnts)
	for i, c := range s.learnts {
		if s.marks[c] == locked || s.clauses[c].size <= 2 || i >= n/2 {
			kept = append(kept, c)
		} else {
			s.marks[c] = drop
			dropped = true
		}
	}
	s.learnts = kept
	if !dropped {
		return
	}
	for li := range s.watches {
		ws := s.watches[li]
		out := ws[:0]
		for _, c := range ws {
			if s.marks[c] != drop {
				out = append(out, c)
			}
		}
		s.watches[li] = out
	}
}

// modelValue returns the model value of var v after satSat.
func (s *sat) modelValue(v int) bool { return s.vals[mkLit(v, false)] == tTrue }
