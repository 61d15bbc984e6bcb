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

func (t tribool) negate() tribool {
	switch t {
	case tTrue:
		return tFalse
	case tFalse:
		return tTrue
	}
	return tUndef
}

// clause is a disjunction of literals. learnt marks clauses derived by
// conflict analysis, the only ones reduceLearnts may delete.
type clause struct {
	lits   []lit
	learnt bool
}

// sat is a CDCL SAT solver with two-watched-literal propagation,
// first-UIP learning, VSIDS-style variable activities, and Luby
// restarts.
type sat struct {
	clauses []*clause
	learnts []*clause
	watches [][]*clause // indexed by lit

	assigns  []tribool // indexed by var
	level    []int
	reason   []*clause
	activity []float64
	polarity []bool // phase saving
	varInc   float64

	trail    []lit
	trailLim []int
	qhead    int

	heap    []int // binary max-heap of vars by activity
	heapPos []int // var -> heap index, -1 if absent

	seen []bool

	numVars      int
	failed       bool
	propagations int64
	conflicts    int64
	decisions    int64

	budget *Budget
}

// restartBase is the Luby restart unit (conflicts).
const restartBase = 64

func newSAT(budget *Budget) *sat {
	s := &sat{varInc: 1, budget: budget}
	s.newVar() // var 0 placeholder
	return s
}

func (s *sat) newVar() int {
	v := s.numVars
	s.numVars++
	s.assigns = append(s.assigns, tUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	if v != 0 {
		s.heapInsert(v)
	}
	return v
}

func (s *sat) value(l lit) tribool {
	v := s.assigns[l.vindex()]
	if l.sign() {
		return v.negate()
	}
	return v
}

// addClause installs a problem clause at decision level 0; it returns
// false if the clause system is trivially unsatisfiable.
func (s *sat) addClause(lits []lit) bool {
	// Remove duplicate and false literals; detect tautologies and
	// satisfied clauses at level 0. A false return marks the solver
	// permanently failed (unsatisfiable at level 0). Duplicate
	// detection is a linear scan over the kept prefix — clauses here
	// are Tseitin-sized (2-3 literals), and the map this used to
	// allocate per clause dominated blasting time.
	out := lits[:0]
outer:
	for _, l := range lits {
		for _, o := range out {
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
		out = append(out, l)
	}
	lits = out
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
			s.uncheckedEnqueue(lits[0], nil)
		}
		if s.propagate() != nil {
			s.failed = true
			return false
		}
		return true
	}
	c := &clause{lits: append([]lit(nil), lits...)}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *sat) watchClause(c *clause) {
	s.watches[c.lits[0].negate()] = append(s.watches[c.lits[0].negate()], c)
	s.watches[c.lits[1].negate()] = append(s.watches[c.lits[1].negate()], c)
}

func (s *sat) uncheckedEnqueue(l lit, from *clause) {
	v := l.vindex()
	if l.sign() {
		s.assigns[v] = tFalse
	} else {
		s.assigns[v] = tTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *sat) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting
// clause or nil.
func (s *sat) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var conflict *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.negate() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// Clause already satisfied by lits[0]?
			if s.value(c.lits[0]) == tTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for i := 2; i < len(c.lits); i++ {
				if s.value(c.lits[i]) != tFalse {
					c.lits[1], c.lits[i] = c.lits[i], c.lits[1]
					s.watches[c.lits[1].negate()] = append(s.watches[c.lits[1].negate()], c)
					found = true
					break
				}
			}
			if found {
				continue // moved to another watch list
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if s.value(c.lits[0]) == tFalse {
				conflict = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(c.lits[0], c)
			}
		}
		s.watches[p] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *sat) analyze(conflict *clause) ([]lit, int) {
	learnt := []lit{litUndef}
	counter := 0
	var p lit = litUndef
	idx := len(s.trail) - 1
	c := conflict
	for {
		start := 0
		if p != litUndef {
			start = 1
		}
		for _, q := range c.lits[start:] {
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
		v := s.trail[i].vindex()
		s.polarity[v] = s.assigns[v] == tTrue
		s.assigns[v] = tUndef
		s.reason[v] = nil
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
		if s.assigns[v] == tUndef {
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
// satSat, assigns holds a full model.
func (s *sat) solve() satResult {
	if s.failed {
		return satUnsat
	}
	var restarts int64
	conflictsUntilRestart := luby(1) * restartBase
	var conflictCount int64
	maxLearnts := len(s.clauses)/2 + 1000
	for {
		conflict := s.propagate()
		if conflict != nil {
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
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watchClause(c)
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
		s.uncheckedEnqueue(mkLit(v, !s.polarity[v]), nil)
	}
}

// reduceLearnts drops roughly half of the learnt clauses (the longer
// ones), keeping reason clauses.
func (s *sat) reduceLearnts() {
	locked := make(map[*clause]bool)
	for _, c := range s.reason {
		if c != nil && c.learnt {
			locked[c] = true
		}
	}
	// Simple policy: keep binary clauses and the shorter half.
	kept := s.learnts[:0]
	removed := make(map[*clause]bool)
	n := len(s.learnts)
	for i, c := range s.learnts {
		if locked[c] || len(c.lits) <= 2 || i >= n/2 {
			kept = append(kept, c)
		} else {
			removed[c] = true
		}
	}
	s.learnts = kept
	if len(removed) == 0 {
		return
	}
	for li := range s.watches {
		ws := s.watches[li]
		out := ws[:0]
		for _, c := range ws {
			if !removed[c] {
				out = append(out, c)
			}
		}
		s.watches[li] = out
	}
}

// modelValue returns the model value of var v after satSat.
func (s *sat) modelValue(v int) bool { return s.assigns[v] == tTrue }
