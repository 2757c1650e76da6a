package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivial(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	if s.ValueOf(a) {
		t.Error("a must be false")
	}
	if !s.ValueOf(b) {
		t.Error("b must be true")
	}
}

func TestUnsatPair(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok && s.Solve() {
		t.Fatal("should be UNSAT")
	}
}

func TestPigeonhole3(t *testing.T) {
	// 4 pigeons, 3 holes: UNSAT.
	s := NewSolver()
	p := make([][]int, 4)
	for i := range p {
		p[i] = make([]int, 3)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < 4; i++ {
		s.AddClause(MkLit(p[i][0], false), MkLit(p[i][1], false), MkLit(p[i][2], false))
	}
	for j := 0; j < 3; j++ {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				s.AddClause(MkLit(p[a][j], true), MkLit(p[b][j], true))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
}

func TestIncremental(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if !s.Solve() {
		t.Fatal("SAT expected")
	}
	s.AddClause(MkLit(a, true))
	if !s.Solve() {
		t.Fatal("still SAT")
	}
	if !s.ValueOf(b) {
		t.Error("b must be true now")
	}
	s.AddClause(MkLit(b, true))
	if s.Solve() {
		t.Fatal("UNSAT expected after forcing both false")
	}
}

// TestDecideOrderAfterRescale checks that decide returns the
// unassigned variable of highest activity (lowest index among equals)
// after activity rescales have underflowed small activities into ties.
func TestDecideOrderAfterRescale(t *testing.T) {
	const nv = 40
	s := NewSolver()
	s.NewVars(nv)
	s.bumpVar(nv)
	for i := 0; i < 4; i++ {
		s.varInc = 2e100 // each bump passes 1e100 and rescales
		s.bumpVar(2)
	}
	if s.activity[nv] != 0 {
		t.Fatalf("activity of var %d is %g, want 0 after four rescales", nv, s.activity[nv])
	}
	var order []int
	for {
		best := 0
		for v := 1; v <= nv; v++ {
			if s.assign[v] == lUndef && (best == 0 || s.activity[v] > s.activity[best]) {
				best = v
			}
		}
		l := s.decide()
		if l == -1 {
			if best != 0 {
				t.Fatalf("decide found no variable, but var %d is unassigned", best)
			}
			return
		}
		order = append(order, l.Var())
		if l.Var() != best {
			t.Fatalf("decide order %v, want var %d last", order, best)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, crefUndef)
	}
}

// TestQuickRandom3SAT cross-checks the solver against brute force on
// small random formulas.
func TestQuickRandom3SAT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 3 + r.Intn(8)
		nc := 3 + r.Intn(25)
		type cl [3]int // signed literals, 1-based vars
		var clauses []cl
		for i := 0; i < nc; i++ {
			var c cl
			for k := 0; k < 3; k++ {
				v := 1 + r.Intn(nv)
				if r.Intn(2) == 1 {
					v = -v
				}
				c[k] = v
			}
			clauses = append(clauses, c)
		}
		// Brute force.
		bruteSAT := false
		for m := 0; m < 1<<uint(nv); m++ {
			all := true
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := (m>>(uint(v)-1))&1 == 1
					if (l > 0 && val) || (l < 0 && !val) {
						sat = true
						break
					}
				}
				if !sat {
					all = false
					break
				}
			}
			if all {
				bruteSAT = true
				break
			}
		}
		// Solver.
		s := NewSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			var lits []Lit
			for _, l := range c {
				if l > 0 {
					lits = append(lits, MkLit(l, false))
				} else {
					lits = append(lits, MkLit(-l, true))
				}
			}
			if !s.AddClause(lits...) {
				ok = false
			}
		}
		got := ok && s.Solve()
		if got != bruteSAT {
			t.Logf("seed %d: solver=%v brute=%v (%d vars, %d clauses)", seed, got, bruteSAT, nv, nc)
			return false
		}
		// If SAT, the model must actually satisfy all clauses.
		if got {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := s.ValueOf(v)
					if (l > 0 && val) || (l < 0 && !val) {
						sat = true
						break
					}
				}
				if !sat {
					t.Logf("seed %d: model does not satisfy clause %v", seed, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
