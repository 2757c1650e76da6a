package sat

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestSolveAssumingBasics checks the assumption interface on small
// hand-built formulas: assumptions constrain without committing, and
// the solver recovers fully once they are dropped.
func TestSolveAssumingBasics(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))

	if !s.SolveAssuming(MkLit(a, true)) { // assume NOT a => b => c
		t.Fatal("satisfiable under assumption")
	}
	if s.ValueOf(a) || !s.ValueOf(b) || !s.ValueOf(c) {
		t.Fatalf("model under assumption: a=%v b=%v c=%v", s.ValueOf(a), s.ValueOf(b), s.ValueOf(c))
	}
	// Contradictory assumptions fail without making the formula UNSAT.
	if s.SolveAssuming(MkLit(a, true), MkLit(b, true)) {
		t.Fatal("assumptions force a conflict")
	}
	if !s.Solve() {
		t.Fatal("formula must stay satisfiable after failed assumptions")
	}
	// Assumptions already implied by units behave like no-ops.
	s.AddClause(MkLit(a, false))
	if !s.SolveAssuming(MkLit(a, false), MkLit(c, false)) {
		t.Fatal("implied + free assumptions")
	}
	if !s.ValueOf(a) || !s.ValueOf(c) {
		t.Fatal("assumed literals must hold in the model")
	}
}

// TestAssumptionsVsClauseCopy cross-checks the assumption path against
// the clause-copy path on random 3-SAT: solving F under assumptions
// must agree with solving a fresh solver loaded with F plus the
// assumptions as unit clauses — for every verdict, across seeds, and
// interleaved with incremental clause additions.
func TestAssumptionsVsClauseCopy(t *testing.T) {
	const nv = 60
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		nc := 200 + r.Intn(120)
		clauses := make([][3]Lit, nc)
		for i := range clauses {
			for k := 0; k < 3; k++ {
				clauses[i][k] = MkLit(1+r.Intn(nv), r.Intn(2) == 1)
			}
		}
		load := func() *Solver {
			s := NewSolver()
			for i := 0; i < nv; i++ {
				s.NewVar()
			}
			for _, c := range clauses {
				s.AddClause(c[0], c[1], c[2])
			}
			return s
		}
		assume := make([]Lit, 1+r.Intn(4))
		for i := range assume {
			assume[i] = MkLit(1+r.Intn(nv), r.Intn(2) == 1)
		}

		s := load()
		gotAssume := s.SolveAssuming(assume...)

		copySolver := load()
		gotCopy := true
		for _, l := range assume {
			if !copySolver.AddClause(l) {
				gotCopy = false
			}
		}
		if gotCopy {
			gotCopy = copySolver.Solve()
		}
		if gotAssume != gotCopy {
			t.Fatalf("seed %d: assumption path %v, clause-copy path %v", seed, gotAssume, gotCopy)
		}
		// The assumption solver must still agree with an unconstrained
		// fresh solve (assumptions leave no residue).
		want := load().Solve()
		if got := s.Solve(); got != want {
			t.Fatalf("seed %d: after assumptions Solve()=%v, fresh solver %v", seed, got, want)
		}
	}
}

// TestPhaseSavingAndSeedVerdicts checks that seeded decision phases
// never change verdicts, only search order.
func TestPhaseSavingAndSeedVerdicts(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		mk := func(phaseSeed int64) *Solver {
			s := NewSolver()
			hardFormula(s, 80, 340, seed)
			if phaseSeed != 0 {
				s.SeedPhases(phaseSeed)
			}
			return s
		}
		if got, want := mk(7).Solve(), mk(0).Solve(); got != want {
			t.Fatalf("seed %d: seeded-phase verdict %v, want %v", seed, got, want)
		}
	}
}

// TestReduceDBKeepsVerdicts forces many learned-clause reductions and
// checks the solver still decides correctly: pigeonhole (UNSAT, heavy
// learning) and satisfiable random instances solved incrementally.
func TestReduceDBKeepsVerdicts(t *testing.T) {
	// Pigeonhole 8 into 7: enough conflicts to trigger reductions.
	s := NewSolver()
	pigeonhole(s, 8, 7)
	if s.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
	if s.Reductions == 0 {
		t.Fatalf("expected learned-clause reductions (conflicts=%d)", s.Conflicts)
	}
	if s.Deleted == 0 {
		t.Fatal("expected deleted learned clauses")
	}

	// Random 3-SAT with a planted solution, grown between solves: half
	// the clauses hold only under an activation literal, which every
	// solve assumes. Each model must satisfy every clause added so far.
	const nv, perRound = 200, 40
	r := rand.New(rand.NewSource(3))
	s = NewSolver()
	s.NewVars(nv)
	act := MkLit(s.NewVar(), false)
	plant := make([]bool, nv+1)
	for v := 1; v <= nv; v++ {
		plant[v] = r.Intn(2) == 1
	}
	var clauses [][3]Lit
	for round := 0; s.Reductions < 2; round++ {
		if round == 100 {
			t.Fatalf("only %d reductions after %d rounds (conflicts=%d)", s.Reductions, round, s.Conflicts)
		}
		for i := 0; i < perRound; i++ {
			var c [3]Lit
			for k := range c {
				c[k] = MkLit(1+r.Intn(nv), r.Intn(2) == 1)
			}
			// Make the planted assignment satisfy the clause.
			if !slices.ContainsFunc(c[:], func(l Lit) bool { return plant[l.Var()] == (l&1 == 0) }) {
				v := c[0].Var()
				c[0] = MkLit(v, !plant[v])
			}
			clauses = append(clauses, c)
			if i%2 == 0 {
				s.AddClause(c[0], c[1], c[2])
			} else {
				s.AddClause(act.Neg(), c[0], c[1], c[2])
			}
		}
		if !s.SolveAssuming(act) {
			t.Fatalf("round %d: planted formula reported UNSAT", round)
		}
		for _, c := range clauses {
			if !slices.ContainsFunc(c[:], func(l Lit) bool { return s.ValueOf(l.Var()) == (l&1 == 0) }) {
				t.Fatalf("round %d: model violates clause %v", round, c)
			}
		}
	}
	t.Logf("%d clauses, %d conflicts, %d reductions", len(clauses), s.Conflicts, s.Reductions)
}

// TestReduceDBMovesRootReasons checks the in-place compaction of the
// clause arena: a root assignment's reason clause that sits behind
// deleted learned clauses moves down, its reason must follow, and
// every kept clause must keep its literals.
func TestReduceDBMovesRootReasons(t *testing.T) {
	const learned = 80
	s := NewSolver()
	s.NewVars(2 + 3*learned)
	// Learned clause i is over vars 3i+3..3i+5; LBDs 3..6 make every one
	// a deletion candidate.
	for i := 0; i < learned; i++ {
		v := 3 + 3*i
		s.addClauseLits([]Lit{MkLit(v, false), MkLit(v+1, true), MkLit(v+2, false)}, true, 3+i%4)
	}
	s.AddClause(MkLit(1, true), MkLit(2, false)) // x1 -> x2
	s.AddClause(MkLit(1, false))
	before := s.reason[2]
	if before == crefUndef {
		t.Fatal("x2 should be implied at the root")
	}
	s.reduceDB()
	if s.Reductions != 1 || s.Deleted != learned/2 {
		t.Fatalf("reductions %d, deleted %d; want 1, %d", s.Reductions, s.Deleted, learned/2)
	}
	after := s.reason[2]
	if after >= before {
		t.Fatalf("reason of x2 at %d, was %d: the compaction did not move it", after, before)
	}
	if got := s.litsOf(after); !slices.Contains(got, MkLit(2, false)) || !slices.Contains(got, MkLit(1, true)) {
		t.Fatalf("reason of x2 reads %v", got)
	}
	kept := 0
	for c := 0; c < len(s.clLits); c += 2 + int(s.clLits[c]) {
		if s.clLits[c+1]&hdrLearned == 0 {
			continue
		}
		kept++
		lits := slices.Clone(s.litsOf(cref(c)))
		slices.Sort(lits)
		v := lits[0].Var()
		if (v-3)%3 != 0 || !slices.Equal(lits, []Lit{MkLit(v, false), MkLit(v+1, true), MkLit(v+2, false)}) {
			t.Fatalf("kept learned clause at %d reads %v", c, lits)
		}
	}
	if kept != learned/2 {
		t.Fatalf("%d learned clauses kept, want %d", kept, learned/2)
	}
	if !s.Solve() || !s.ValueOf(1) || !s.ValueOf(2) {
		t.Fatal("x1 and x2 must hold after the reduction")
	}
}

// TestFixedValue checks root-level fixed-literal queries.
func TestFixedValue(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	if _, fixed := s.FixedValue(MkLit(a, false)); fixed {
		t.Fatal("unassigned var reported fixed")
	}
	s.AddClause(MkLit(a, false))                // a
	s.AddClause(MkLit(a, true), MkLit(b, true)) // a => NOT b
	if val, fixed := s.FixedValue(MkLit(a, false)); !fixed || !val {
		t.Fatalf("a: val=%v fixed=%v", val, fixed)
	}
	if val, fixed := s.FixedValue(MkLit(b, false)); !fixed || val {
		t.Fatalf("b: val=%v fixed=%v", val, fixed)
	}
	if val, fixed := s.FixedValue(MkLit(b, true)); !fixed || !val {
		t.Fatalf("NOT b: val=%v fixed=%v", val, fixed)
	}
}

// TestAddClausesFlat checks the bulk loader against AddClause on random
// batches, including root-simplification of already-fixed literals.
func TestAddClausesFlat(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		const nv = 40
		var lits []Lit
		var ends []int32
		var asClauses [][]Lit
		for i := 0; i < 150; i++ {
			n := 1 + r.Intn(4)
			cl := make([]Lit, 0, n)
			used := map[int]bool{}
			for len(cl) < n {
				v := 1 + r.Intn(nv)
				if used[v] {
					continue // bulk loader requires duplicate-free clauses
				}
				used[v] = true
				cl = append(cl, MkLit(v, r.Intn(2) == 1))
			}
			lits = append(lits, cl...)
			ends = append(ends, int32(len(lits)))
			asClauses = append(asClauses, cl)
		}
		bulk := NewSolver()
		bulk.NewVars(nv)
		okBulk := bulk.AddClausesFlat(lits, ends)
		one := NewSolver()
		one.NewVars(nv)
		okOne := true
		for _, cl := range asClauses {
			if !one.AddClause(cl...) {
				okOne = false
				break
			}
		}
		if okBulk != okOne {
			t.Fatalf("seed %d: bulk load ok=%v, AddClause ok=%v", seed, okBulk, okOne)
		}
		if okBulk {
			if got, want := bulk.Solve(), one.Solve(); got != want {
				t.Fatalf("seed %d: bulk verdict %v, AddClause verdict %v", seed, got, want)
			}
		}
	}
}

// TestInterruptStopsLongQuery interrupts one pigeonhole query that
// runs for minutes from another goroutine: the search must stop at a
// conflict soon after, undecided, and a later search stops as well.
func TestInterruptStopsLongQuery(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 13, 12)
	done := make(chan bool)
	go func() {
		_, decided := s.SolveBudgeted(0)
		done <- decided
	}()
	time.Sleep(50 * time.Millisecond)
	s.Interrupt()
	select {
	case decided := <-done:
		if decided {
			t.Fatal("interrupted query reported a verdict")
		}
	case <-time.After(time.Second):
		t.Fatal("query still running 1 s after Interrupt")
	}
	if _, decided := s.SolveBudgeted(0); decided {
		t.Fatal("a search after Interrupt reported a verdict")
	}
}
