package sat

import (
	"math/rand"
	"testing"
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
	const holes, pigeons = 7, 8
	var v [pigeons][holes]int
	for p := 0; p < pigeons; p++ {
		for h := 0; h < holes; h++ {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
	if s.Reductions == 0 {
		t.Fatalf("expected learned-clause reductions (conflicts=%d)", s.Conflicts)
	}
	if s.Deleted == 0 {
		t.Fatal("expected deleted learned clauses")
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
