package sat

import (
	"math/rand"
	"runtime"
	"testing"
)

// hardFormula builds a deterministic random 3-SAT instance near the
// satisfiability threshold (~4.2 clauses/var), which exercises
// propagation, conflict analysis, and restarts heavily.
func hardFormula(s *Solver, nv, nc int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for i := 0; i < nc; i++ {
		var lits [3]Lit
		for k := range lits {
			lits[k] = MkLit(1+r.Intn(nv), r.Intn(2) == 1)
		}
		s.AddClause(lits[0], lits[1], lits[2])
	}
}

// pigeonhole loads the pigeonhole formula of pigeons into holes: UNSAT
// when pigeons > holes, with heavy clause learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	first := s.NewVars(pigeons * holes)
	at := func(p, h int) int { return first + p*holes + h }
	lits := make([]Lit, holes)
	for p := 0; p < pigeons; p++ {
		for h := range lits {
			lits[h] = MkLit(at(p, h), false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(at(p1, h), true), MkLit(at(p2, h), true))
			}
		}
	}
}

// BenchmarkSATPropagate measures the propagation-dominated hot path:
// solving threshold random 3-SAT plus a pigeonhole core (UNSAT, heavy
// clause learning).
func BenchmarkSATPropagate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		hardFormula(s, 120, 500, 12345)
		s.Solve()
		ph := NewSolver()
		pigeonhole(ph, 7, 6)
		if ph.Solve() {
			b.Fatal("pigeonhole must be UNSAT")
		}
	}
}

// searchStats is the solver's search, counted.
type searchStats struct {
	Conflicts, Decisions, Propagations, Reductions, Deleted int
}

func statsOf(s *Solver) searchStats {
	return searchStats{s.Conflicts, s.Decisions, s.Propagations, s.Reductions, s.Deleted}
}

// TestSearchGolden pins the search on the two formulas of
// BenchmarkSATPropagate: a change to the solver's data layout or
// bookkeeping must leave every count unchanged.
func TestSearchGolden(t *testing.T) {
	s := NewSolver()
	hardFormula(s, 120, 500, 12345)
	s.Solve()
	want := searchStats{Conflicts: 691, Decisions: 903, Propagations: 18918}
	if got := statsOf(s); got != want {
		t.Errorf("random 3-SAT: %+v, want %+v", got, want)
	}
	ph := NewSolver()
	pigeonhole(ph, 7, 6)
	if ph.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
	want = searchStats{Conflicts: 843, Decisions: 1099, Propagations: 11303}
	if got := statsOf(ph); got != want {
		t.Errorf("pigeonhole 7 into 6: %+v, want %+v", got, want)
	}
}

// TestSolveAllocsPerConflict bounds the solver's allocation rate: a
// conflict learns a clause into the arena without allocating, so only
// arena, watch-list and trail growth and the reductions' sorts remain.
func TestSolveAllocsPerConflict(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 8, 7)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if s.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
	runtime.ReadMemStats(&m1)
	perConflict := float64(m1.Mallocs-m0.Mallocs) / float64(s.Conflicts)
	t.Logf("%d conflicts, %.2f allocs/conflict", s.Conflicts, perConflict)
	if perConflict >= 1 {
		t.Errorf("%.2f allocs per conflict, want under 1", perConflict)
	}
}
