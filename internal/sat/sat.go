// Package sat implements a compact CDCL SAT solver (two-watched
// literals, first-UIP clause learning, VSIDS-style activities with an
// order heap, seeded decision phases, Luby restarts, LBD-tagged
// learned-clause deletion) used by the security evaluation: the
// oracle-guided attack on eFPGA bitstreams.
//
// The hot paths are slice-based: every clause is one block of a flat
// arena, a two-word clause header (length; flags and LBD) followed by
// its literals, so visiting a clause touches one block (no per-clause
// allocation, no pointer chasing); watch lists are slices indexed
// directly by literal value, and every watch entry carries a blocker
// literal so satisfied clauses are skipped without touching the clause
// memory at all. The solver is incremental in two ways: clauses can be
// added between Solve calls (individually or in bulk with
// AddClausesFlat), and SolveAssuming decides satisfiability under a set
// of assumption literals without committing them, so one solver
// instance can answer both the "is there a distinguishing input" and
// the "give me a witness key" queries of the attack loop.
package sat

import (
	"sort"
	"sync/atomic"
)

// Lit is a literal: variable index v (1-based) encoded as 2v for the
// positive literal and 2v+1 for the negative literal.
type Lit int32

// MkLit builds a literal from a 1-based variable and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Var returns the literal's 1-based variable.
func (l Lit) Var() int { return int(l >> 1) }

// lbool is a three-valued assignment encoded so literal evaluation is
// branchless: value(l) = assign[var] XOR sign(l), with any result >= 2
// meaning unassigned (assign itself only ever holds 0, 1, or 2).
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// cref is the arena offset of a clause header; crefUndef means none.
// Watchers store cref<<1 in an int32, so the arena holds fewer than
// 2^30 words (4 GiB).
type cref int32

const crefUndef cref = -1

// Clause header. The clause at cref c occupies clLits[c : c+2+n]:
// clLits[c] is its length n, clLits[c+1] its flags with the LBD above
// them, and clLits[c+2 : c+2+n] its literals. Learned clauses carry
// the LBD (literal block distance: the number of distinct decision
// levels in the clause when it was learned) that drives the deletion
// policy, and a used flag set whenever the clause serves as an
// antecedent in conflict analysis — recently useful clauses survive
// the next reduction regardless of their LBD.
const (
	hdrUsed    Lit = 1 << iota // antecedent since the last reduction
	hdrLearned                 // learned clause: a deletion candidate
	hdrLocked                  // reduceDB scratch: reason of a root assignment
	hdrDeleted                 // reduceDB scratch: dropped by this reduction

	hdrLBDShift = 4 // the LBD sits above the four flag bits
)

// watcher is one two-watched-literal entry: the clause to visit and a
// blocker literal (some other literal of the clause); when the blocker
// is already true the clause is satisfied and the entry is skipped
// without loading the clause. The clause reference is tagged in its
// low bit: binary clauses are flagged so propagation can act on the
// blocker (which is the clause's only other literal) without loading
// the clause memory at all.
type watcher struct {
	w       int32 // cref<<1 | isBinary
	blocker Lit
}

func mkWatch(c cref, bin bool) int32 {
	w := int32(c) << 1
	if bin {
		w |= 1
	}
	return w
}

// Learned-clause deletion policy: a reduction pass runs once the
// conflict count passes the next threshold (checked at restarts and at
// Solve entry, when the trail is at the root level), keeps glue
// clauses (LBD <= lbdGlue) and locked clauses (reasons of current
// root assignments), and deletes the worse half of the rest, ordered
// by LBD then size.
const (
	reduceFirst    = 2000 // conflicts before the first reduction
	reduceInc      = 300  // threshold growth per reduction
	lbdGlue        = 2    // clauses at or below this LBD are kept forever
	minLearnedKeep = 64   // never reduce tiny learned sets
)

// Solver is a CDCL SAT solver. The zero value is not usable; create
// with NewSolver.
type Solver struct {
	nVars    int
	clLits   []Lit // clause arena: per clause a header, then its literals
	nLearned int
	watches  [][]watcher // indexed by int(Lit)
	assign   []lbool     // per var (1-based)
	level    []int
	reason   []cref
	trail    []Lit
	trailLim []int
	activity []float64
	phase    []bool // decision polarity per var (true = assign true first)
	varInc   float64
	qhead    int
	unsat    bool // sticky root-level UNSAT

	// VSIDS order heap: heap holds vars ordered by activity, hpos maps
	// var -> heap index (-1 when absent).
	heap []int32
	hpos []int32

	seen     []bool // analyze scratch, per var
	addTmp   []Lit  // AddClause scratch
	learnt   []Lit  // analyze: the learned clause under construction
	lbdMark  []int  // per-level stamp for LBD computation
	lbdGen   int    // current lbdMark generation
	redTmp   []cref // reduceDB candidate scratch
	minKeep  []Lit  // analyze: pre-minimization clause copy
	minClear []Lit  // analyze: temporary seen marks from litRedundant
	anStack  []Lit  // litRedundant DFS stack

	nextReduce int // conflict count triggering the next reduction

	interrupted atomic.Bool // set by Interrupt, read once per conflict

	// Stats.
	Conflicts    int
	Decisions    int
	Propagations int
	Reductions   int // learned-clause reduction passes
	Deleted      int // learned clauses deleted across all reductions
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{
		watches:    make([][]watcher, 2),
		varInc:     1.0,
		nextReduce: reduceFirst,
	}
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.lbdMark = append(s.lbdMark, 0)
	s.hpos = append(s.hpos, -1)
	s.watches = append(s.watches, nil, nil)
	if s.nVars == 1 {
		// index 0 pads the 1-based arrays
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, false)
		s.seen = append(s.seen, false)
		s.lbdMark = append(s.lbdMark, 0)
		s.hpos = append(s.hpos, -1)
	}
	s.heapInsert(int32(s.nVars))
	return s.nVars
}

// NewVars allocates n consecutive variables and returns the index of
// the first; the block is contiguous, which lets callers address a
// family of related variables (e.g. the key bits of one miter copy) by
// a base offset — the mechanism behind CNF template stamping.
func (s *Solver) NewVars(n int) int {
	if n <= 0 {
		return s.nVars + 1
	}
	first := s.NewVar()
	for i := 1; i < n; i++ {
		s.NewVar()
	}
	return first
}

// SeedPhases sets a deterministic pseudo-random decision phase for every
// currently allocated variable (splitmix64 over the seed). Callers use
// it to diversify the first models the solver produces — e.g. the
// distinguishing-input sequence of the oracle-guided attack — without
// giving up run-to-run determinism for a fixed seed.
func (s *Solver) SeedPhases(seed int64) {
	x := uint64(seed)
	for v := 1; v <= s.nVars; v++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s.phase[v] = z&1 == 1
	}
}

// value evaluates a literal branchlessly: results 0/1 are true/false,
// anything >= lUndef is unassigned.
func (s *Solver) value(l Lit) lbool {
	return s.assign[l.Var()] ^ lbool(l&1)
}

// FixedValue reports whether the literal is permanently assigned at
// the root level, and its value there. Clause-building front ends use
// it to constant-fold literals the solver has already proven.
func (s *Solver) FixedValue(l Lit) (value, fixed bool) {
	v := l.Var()
	if v <= 0 || v > s.nVars || s.assign[v] == lUndef || s.level[v] != 0 {
		return false, false
	}
	return s.value(l) == lTrue, true
}

func (s *Solver) litsOf(c cref) []Lit {
	i := int(c) + 2
	return s.clLits[i : i+int(s.clLits[c])]
}

// AddClause adds a clause; it returns false if the formula became
// trivially unsatisfiable. Adding clauses between Solve calls is
// allowed (the solver backtracks to the root level first).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Simplify: drop duplicate/false literals, detect tautology. The
	// scratch is quadratic in the clause length, but clauses are short
	// and this avoids a map allocation per call.
	out := s.addTmp[:0]
	for _, l := range lits {
		dup := false
		for _, o := range out {
			if o == l.Neg() {
				s.addTmp = out
				return true // tautology
			}
			if o == l {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				s.addTmp = out
				return true // already satisfied at root
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false
			}
		}
		out = append(out, l)
	}
	s.addTmp = out
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if s.value(out[0]) == lFalse {
			s.unsat = true
			return false
		}
		if s.value(out[0]) >= lUndef {
			s.uncheckedEnqueue(out[0], crefUndef)
			if s.propagate() != crefUndef {
				s.unsat = true
				return false
			}
		}
		return true
	}
	s.addClauseLits(out, false, 0)
	return true
}

// AddClausesFlat bulk-loads a batch of clauses given as one flat
// literal buffer with clause end offsets: clause i is
// lits[ends[i-1]:ends[i]] (ends[ -1 ] = 0). It is the fast path behind
// CNF template stamping: the whole batch is appended to the arena with
// a single copy and one watch installation per clause, no per-clause
// allocation or re-simplification. The caller must supply clauses that
// are duplicate- and tautology-free; root-level assigned literals are
// handled here (satisfied clauses are dropped, false literals are
// stripped), so templates may reference variables the solver has since
// fixed. Returns false if the formula became unsatisfiable.
func (s *Solver) AddClausesFlat(lits []Lit, ends []int32) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	start := int32(0)
	for _, end := range ends {
		cl := lits[start:end]
		start = end
		// Append a header and the literals, stripping root-false
		// literals; drop root-satisfied clauses (after cancelUntil(0)
		// above, every assignment is a root assignment).
		base := len(s.clLits)
		s.clLits = append(s.clLits, 0, 0)
		satisfied := false
		for _, l := range cl {
			switch s.value(l) {
			case lTrue:
				satisfied = true
			case lFalse:
				// dropped
			default:
				s.clLits = append(s.clLits, l)
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			s.clLits = s.clLits[:base]
			continue
		}
		n := len(s.clLits) - base - 2
		switch n {
		case 0:
			s.clLits = s.clLits[:base]
			s.unsat = true
			return false
		case 1:
			l := s.clLits[base+2]
			s.clLits = s.clLits[:base]
			if s.value(l) == lFalse {
				s.unsat = true
				return false
			}
			if s.value(l) >= lUndef {
				s.uncheckedEnqueue(l, crefUndef)
				// Propagate immediately so later clauses in the batch see
				// the fixed value and simplify against it.
				if s.propagate() != crefUndef {
					s.unsat = true
					return false
				}
			}
		default:
			s.clLits[base] = Lit(n)
			s.watch(cref(base))
		}
	}
	return true
}

// addClauseLits copies lits into the arena behind a header and
// installs the watches.
func (s *Solver) addClauseLits(lits []Lit, learned bool, lbd int) cref {
	c := cref(len(s.clLits))
	flags := Lit(lbd) << hdrLBDShift
	if learned {
		flags |= hdrLearned
		s.nLearned++
	}
	s.clLits = append(s.clLits, Lit(len(lits)), flags)
	s.clLits = append(s.clLits, lits...)
	s.watch(c)
	return c
}

func (s *Solver) watch(c cref) {
	lits := s.litsOf(c)
	bin := len(lits) == 2
	w0 := int(lits[0].Neg())
	w1 := int(lits[1].Neg())
	s.watches[w0] = append(s.watches[w0], watcher{w: mkWatch(c, bin), blocker: lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{w: mkWatch(c, bin), blocker: lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	s.assign[l.Var()] = lbool(l & 1)
	s.level[l.Var()] = len(s.trailLim)
	s.reason[l.Var()] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause
// reference or crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker check: clause satisfied without loading it.
			bv := s.value(w.blocker)
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.w&1 == 1 {
				// Binary clause: the blocker is the only other literal, so
				// the outcome is decided without touching clause memory.
				ws[j] = w
				j++
				if bv == lFalse {
					j += copy(ws[j:], ws[i+1:])
					s.watches[p] = ws[:j]
					s.qhead = len(s.trail)
					return cref(w.w >> 1)
				}
				s.uncheckedEnqueue(w.blocker, cref(w.w>>1))
				continue
			}
			c := cref(w.w >> 1)
			lits := s.litsOf(c)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w: w.w, blocker: first}
				j++
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := int(lits[1].Neg())
					s.watches[nw] = append(s.watches[nw], watcher{w: w.w, blocker: first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = watcher{w: w.w, blocker: first}
			j++
			if s.value(first) == lFalse {
				// Conflict: keep the remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// --- VSIDS order heap ---

// heapLess orders the decision heap: higher activity first, lower
// variable index among equals (the deterministic tie-break the old
// linear-scan decide used).
func (s *Solver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapSwap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.hpos[h[i]] = int32(i)
	s.hpos[h[j]] = int32(j)
}

func (s *Solver) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[p]) {
			break
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Solver) heapDown(i int) {
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], s.heap[i]) {
			return
		}
		s.heapSwap(i, c)
		i = c
	}
}

func (s *Solver) heapInsert(v int32) {
	if s.hpos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.hpos[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.hpos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// The scaling can underflow small activities into ties (0 or a
		// shared denormal), which heapLess orders by index: restore the
		// heap order so decide keeps returning the maximum.
		for i := (len(s.heap) - 2) / 2; i >= 0; i-- {
			s.heapDown(i)
		}
	}
	if s.hpos[v] >= 0 {
		s.heapUp(int(s.hpos[v]))
	}
}

// analyze produces a first-UIP learned clause, its backtrack level,
// and its LBD (number of distinct decision levels).
func (s *Solver) analyze(confl cref) ([]Lit, int, int) {
	seen := s.seen
	// Slot 0 is kept for the asserting literal, known only at the end.
	learnt := append(s.learnt[:0], 0)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	cur := confl
	for {
		if s.clLits[cur+1]&hdrLearned != 0 {
			// Antecedent use protects the clause at the next reduction.
			s.clLits[cur+1] |= hdrUsed
		}
		for _, q := range s.litsOf(cur) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= len(s.trailLim) {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
		cur = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()
	s.learnt = learnt
	// Conflict-clause minimization (recursive, MiniSat-style): drop any
	// literal whose reason chain is already implied by the rest of the
	// clause. The seen marks from the collection loop above double as
	// the "in clause" set; temporary marks made while chasing reason
	// chains are recorded in minClear and removed below.
	s.minKeep = append(s.minKeep[:0], learnt[1:]...)
	abstract := uint32(0)
	for _, l := range learnt[1:] {
		abstract |= 1 << (uint(s.level[l.Var()]) & 31)
	}
	j := 1
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == crefUndef || !s.litRedundant(l, abstract) {
			learnt[j] = l
			j++
		}
	}
	learnt = learnt[:j]
	// Clear every mark so the scratch is clean for next time.
	for _, l := range s.minKeep {
		seen[l.Var()] = false
	}
	for _, l := range s.minClear {
		seen[l.Var()] = false
	}
	s.minClear = s.minClear[:0]
	// Backtrack level: second-highest level in the clause. LBD: number
	// of distinct levels across the clause (asserting literal included).
	back := 0
	s.lbdGen++
	lbd := 0
	// Distinct-level count via the per-level stamp array (lbdMark is
	// indexed by decision level here; levels are bounded by nVars).
	for _, l := range learnt {
		lv := s.level[l.Var()]
		if lv >= len(s.lbdMark) {
			continue // defensive; levels are bounded by vars
		}
		if s.lbdMark[lv] != s.lbdGen {
			s.lbdMark[lv] = s.lbdGen
			lbd++
		}
	}
	for _, l := range learnt[1:] {
		if s.level[l.Var()] > back {
			back = s.level[l.Var()]
		}
	}
	return learnt, back, lbd
}

// litRedundant reports whether p is implied by the other literals of
// the clause under construction (whose variables are marked in seen):
// it chases p's reason chain and succeeds if every path terminates in
// a seen or root-level literal. Failed probes restore the temporary
// marks they made; successful ones keep them (in minClear) so later
// probes share the work. abstract is a Bloom-style signature of the
// clause's decision levels — a chain literal outside those levels can
// never be redundant, which prunes most failing probes in O(1).
func (s *Solver) litRedundant(p Lit, abstract uint32) bool {
	s.anStack = append(s.anStack[:0], p)
	top := len(s.minClear)
	for len(s.anStack) > 0 {
		q := s.anStack[len(s.anStack)-1]
		s.anStack = s.anStack[:len(s.anStack)-1]
		for _, l := range s.litsOf(s.reason[q.Var()]) {
			v := l.Var()
			if v == q.Var() || s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefUndef || (uint32(1)<<(uint(s.level[v])&31))&abstract == 0 {
				for i := top; i < len(s.minClear); i++ {
					s.seen[s.minClear[i].Var()] = false
				}
				s.minClear = s.minClear[:top]
				return false
			}
			s.seen[v] = true
			s.anStack = append(s.anStack, l)
			s.minClear = append(s.minClear, l)
		}
	}
	return true
}

func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		s.heapInsert(int32(v))
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) decide() Lit {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == lUndef {
			return MkLit(int(v), !s.phase[v])
		}
	}
	return -1
}

func luby(i int) int {
	// Luby sequence: 1 1 2 1 1 2 4 ...
	for k := 1; ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// reduceDB deletes the less useful half of the learned clauses (kept:
// glue clauses with LBD <= lbdGlue, clauses locked as reasons of the
// current root assignment, and the better-LBD half of the rest) and
// compacts the clause arena in place, remapping clause references and
// rebuilding the watch lists. It must be called with the trail at the
// root level.
func (s *Solver) reduceDB() {
	if s.nLearned <= minLearnedKeep {
		return
	}
	a := s.clLits
	// Locked clauses: reasons of current (root) assignments.
	s.markReasons(true)
	// Candidate learned clauses, in arena order, by (LBD, size)
	// descending badness. Clauses used as antecedents since the last
	// reduction are spared this round (and their protection cleared for
	// the next one).
	cand := s.redTmp[:0]
	for c := 0; c < len(a); c += 2 + int(a[c]) {
		h := a[c+1]
		if h&hdrLearned == 0 {
			continue
		}
		if h&hdrUsed != 0 {
			a[c+1] = h &^ hdrUsed
			continue
		}
		if h&hdrLocked == 0 && h>>hdrLBDShift > lbdGlue {
			cand = append(cand, cref(c))
		}
	}
	s.redTmp = cand
	// Partial selection: delete the worse half. Simple insertion-free
	// approach: sort by badness descending.
	sortCrefsByBadness(cand, a)
	del := len(cand) / 2
	if del == 0 {
		s.markReasons(false)
		return
	}
	for _, c := range cand[:del] {
		a[c+1] |= hdrDeleted
	}
	// Compact the arena in place. A locked clause is the reason of
	// exactly one of its variables; point that reason at its new place.
	w := 0
	for c := 0; c < len(a); {
		size := 2 + int(a[c])
		h := a[c+1]
		if h&hdrDeleted == 0 {
			if h&hdrLocked != 0 {
				for _, l := range a[c+2 : c+size] {
					if s.reason[l.Var()] == cref(c) {
						s.reason[l.Var()] = cref(w)
						break
					}
				}
			}
			copy(a[w:], a[c:c+size])
			a[w+1] = h &^ hdrLocked
			w += size
		}
		c += size
	}
	a = a[:w]
	s.clLits = a
	s.Deleted += del
	s.nLearned -= del
	s.Reductions++
	// Rebuild watch lists: pick two non-root-false literals per clause
	// so the watch invariant holds under the current root assignment.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for c := 0; c < len(a); c += 2 + int(a[c]) {
		lits := s.litsOf(cref(c))
		w := 0
		for i := 0; i < len(lits) && w < 2; i++ {
			if s.value(lits[i]) != lFalse {
				lits[i], lits[w] = lits[w], lits[i]
				w++
			}
		}
		// w < 2 means the clause is root-satisfied (a root-true literal
		// sits at position 0 after the partition scan above): watches on
		// root-false literals are never visited again, which is safe for
		// a permanently satisfied clause.
		s.watch(cref(c))
	}
}

// markReasons sets (on) or clears the locked mark in the header of
// every clause that is the reason of a trail assignment.
func (s *Solver) markReasons(on bool) {
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			if on {
				s.clLits[r+1] |= hdrLocked
			} else {
				s.clLits[r+1] &^= hdrLocked
			}
		}
	}
}

// sortCrefsByBadness orders candidates worst-first: higher LBD first,
// longer clause first among equals, so the deletion pass can drop a
// prefix.
func sortCrefsByBadness(cand []cref, a []Lit) {
	sort.Slice(cand, func(i, j int) bool {
		ca, cb := cand[i], cand[j]
		if la, lb := a[ca+1]>>hdrLBDShift, a[cb+1]>>hdrLBDShift; la != lb {
			return la > lb
		}
		return a[ca] > a[cb]
	})
}

// Solve decides satisfiability of the current clause set. On SAT, the
// model can be read with ValueOf. The solver is incremental: more
// clauses may be added afterwards and Solve called again.
func (s *Solver) Solve() bool { return s.SolveAssuming() }

// SolveAssuming decides satisfiability under the given assumption
// literals. The assumptions are not added as clauses: they hold for
// this call only, and learned clauses remain valid for later calls
// with different (or no) assumptions. It returns false when the
// formula is unsatisfiable under the assumptions — which includes the
// formula being unsatisfiable outright.
func (s *Solver) SolveAssuming(assumps ...Lit) bool {
	res, _ := s.SolveBudgeted(0, assumps...)
	return res
}

// Interrupt stops the search at its next conflict, as if its conflict
// budget had run out: the running or next SolveBudgeted call reports
// decided=false. It is safe to call from another goroutine, e.g. from
// context.AfterFunc, and it stays in force for every later search.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// SolveBudgeted is SolveAssuming with a conflict budget: if the search
// exceeds maxConflicts additional conflicts, or Interrupt is called,
// the solver backtracks to the root and reports decided=false (the
// formula keeps all learned clauses, so a later call resumes the
// work). maxConflicts <= 0 means unlimited. Security sweeps use it to
// bound the cost of attacking a fabric that is simply too strong to
// crack.
func (s *Solver) SolveBudgeted(maxConflicts int, assumps ...Lit) (result, decided bool) {
	budget := -1
	if maxConflicts > 0 {
		budget = s.Conflicts + maxConflicts
	}
	if s.unsat {
		return false, true
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.unsat = true
		return false, true
	}
	if s.Conflicts >= s.nextReduce {
		s.reduceDB()
		s.nextReduce = s.Conflicts + reduceFirst + reduceInc*s.Reductions
	}
	restart := 1
	conflictBudget := 64 * luby(restart)
	conflicts := 0
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflicts++
			if len(s.trailLim) == 0 {
				s.unsat = true
				return false, true
			}
			if (budget >= 0 && s.Conflicts >= budget) || s.interrupted.Load() {
				s.cancelUntil(0)
				return false, false
			}
			learnt, back, lbd := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if s.value(learnt[0]) == lFalse {
					s.unsat = true
					return false, true
				}
				if s.value(learnt[0]) >= lUndef {
					s.uncheckedEnqueue(learnt[0], crefUndef)
					if s.propagate() != crefUndef {
						s.unsat = true
						return false, true
					}
				}
				continue
			}
			c := s.addClauseLits(learnt, true, lbd)
			if s.value(learnt[0]) >= lUndef {
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc *= 1.05
			if conflicts > conflictBudget {
				restart++
				conflictBudget = 64 * luby(restart)
				conflicts = 0
				s.cancelUntil(0)
				if s.Conflicts >= s.nextReduce {
					s.reduceDB()
					s.nextReduce = s.Conflicts + reduceFirst + reduceInc*s.Reductions
				}
			}
			continue
		}
		// Establish pending assumptions before free decisions.
		l := Lit(-1)
		for len(s.trailLim) < len(assumps) {
			p := assumps[len(s.trailLim)]
			switch s.value(p) {
			case lTrue:
				// Already implied: open a dummy decision level so the
				// level-indexed assumption bookkeeping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// The formula forces the negation of an assumption.
				return false, true
			}
			l = p
			break
		}
		if l == -1 {
			// Every unassigned variable is in the heap, so a full trail is
			// the one case in which decide would find none: return the
			// model before decide drains the heap of assigned entries.
			if len(s.trail) == s.nVars {
				return true, true
			}
			l = s.decide()
			s.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, crefUndef)
	}
}

// ValueOf returns the model value of a 1-based variable after a
// successful Solve.
func (s *Solver) ValueOf(v int) bool { return s.assign[v] == lTrue }
