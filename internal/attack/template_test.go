package attack

import (
	"fmt"
	"math/rand"
	"testing"

	"alice/internal/sat"
	"alice/internal/techmap"
)

// singleLUT returns a network of k inputs feeding one k-input LUT with
// the given mask, observed as the only output.
func singleLUT(k int, mask uint64) *techmap.LUTNetwork {
	ln := &techmap.LUTNetwork{K: techmap.MaxK}
	in := make([]int32, k)
	for i := range in {
		in[i] = int32(i)
		ln.Nodes = append(ln.Nodes, techmap.LNode{Kind: techmap.LInput})
		ln.PIs = append(ln.PIs, int32(i))
	}
	ln.Nodes = append(ln.Nodes, techmap.LNode{Kind: techmap.LLUT, Mask: mask, In: in})
	ln.POs = []int32{int32(k)}
	return ln
}

// checkClauses fails unless every clause of tb is free of duplicate
// and complementary literals, as sat.Solver.AddClausesFlat requires.
func checkClauses(t *testing.T, tb *template) {
	t.Helper()
	start := int32(0)
	for _, end := range tb.ends {
		cl := tb.lits[start:end]
		start = end
		for i, a := range cl {
			if tIsConst(a) {
				t.Fatalf("clause %v holds a constant", cl)
			}
			for _, b := range cl[i+1:] {
				if a == b || a == tNeg(b) {
					t.Fatalf("clause %v repeats a variable", cl)
				}
			}
		}
	}
}

// TestLUTEncodingOracle checks the multiplexer encoding of one LUT
// against the LUT's definition: the output equals the key bit of the
// row the pins address. Each random cone draws its pins from
// constants, a few input variables and their negations (so pins
// repeat and complement each other) and fixes each row's key bit to
// its mask value or leaves it free. The cone is stamped into a fresh
// solver, and for every assignment of the distinct inputs, and both
// values of the addressed row's key bit when it is free, the output
// must be forced: satisfiable at the expected value, unsatisfiable at
// its negation. The other free key bits stay unassigned, so each
// unsatisfiable answer covers every assignment of them at once.
func TestLUTEncodingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ k, n int }{{1, 200}, {2, 200}, {3, 200}, {4, 200}, {6, 6}}
	for _, c := range cases {
		for n := 0; n < c.n; n++ {
			k := c.k
			rows := 1 << uint(k)
			mask := rng.Uint64()
			if rows < 64 {
				mask &= uint64(1)<<uint(rows) - 1
			}
			nv := 1 + rng.Intn(k) // distinct input variables
			inLits := make([]int32, k)
			for p := range inLits {
				switch r := rng.Intn(6); r {
				case 0:
					inLits[p] = tConst0
				case 1:
					inLits[p] = tConst1
				default:
					inLits[p] = mkTLit(1+rng.Intn(nv), r%2 == 1)
				}
			}
			fixed := make([]bool, rows)
			for r := range fixed {
				fixed[r] = rng.Intn(2) == 0
			}
			keyFixed := func(b int) (bool, bool) {
				if !fixed[b] {
					return false, false
				}
				return mask>>uint(b)&1 == 1, true
			}
			name := fmt.Sprintf("K=%d #%d pins %v", k, n, inLits)

			ln := singleLUT(k, mask)
			v := newCombView(ln)
			var tb template
			tb.reset(nv, v.keyLen)
			outs := v.buildCone(&tb, inLits, keyFixed)
			checkClauses(t, &tb)

			s := sat.NewSolver()
			ltrue := sat.MkLit(s.NewVar(), false)
			s.AddClause(ltrue)
			xb := s.NewVars(nv)
			kb := s.NewVars(v.keyLen)
			var buf []sat.Lit
			gb, ok := tb.stamp(s, xb, kb, ltrue.Neg(), ltrue, &buf)
			if !ok {
				t.Fatalf("%s: stamping made the formula unsatisfiable", name)
			}
			out := tb.lit(outs[0], xb, kb, gb, ltrue.Neg(), ltrue)

			for asg := 0; asg < 1<<uint(nv); asg++ {
				row := 0
				for p, l := range inLits {
					on := l == tConst1
					if !tIsConst(l) {
						on = (asg>>uint(l>>1-1)&1 == 1) != (l&1 == 1)
					}
					if on {
						row |= 1 << uint(p)
					}
				}
				var assume []sat.Lit
				for i := 0; i < nv; i++ {
					assume = append(assume, sat.MkLit(xb+i, asg>>uint(i)&1 == 0))
				}
				forced := func(want bool, assume []sat.Lit) {
					o := out
					if !want {
						o = o.Neg()
					}
					if !s.SolveAssuming(append(assume, o)...) {
						t.Fatalf("%s: inputs %b row %d: output cannot be %v", name, asg, row, want)
					}
					if s.SolveAssuming(append(assume, o.Neg())...) {
						t.Fatalf("%s: inputs %b row %d: output is not forced to %v", name, asg, row, want)
					}
				}
				if fixed[row] {
					forced(mask>>uint(row)&1 == 1, assume)
					continue
				}
				for _, b := range []bool{false, true} {
					forced(b, append(assume[:nv:nv], sat.MkLit(kb+row, !b)))
				}
			}
		}
	}
}

// coneSize is the CNF one template build stamps per copy.
type coneSize struct{ Gates, Clauses int }

// TestTemplateSizeGolden pins the size of the CNF the encoder writes:
// the miter template, and the key cones of eight seeded input patterns
// summed, every other one with each third key bit fixed to the
// network's own mask. The search goldens would catch a formula change
// only through the solver's counts; this catches it directly.
func TestTemplateSizeGolden(t *testing.T) {
	type sizes struct{ Miter, Cones coneSize }
	want := map[string]sizes{
		"target 0": {coneSize{1, 8}, coneSize{}},
		"target 1": {coneSize{8, 160}, coneSize{27, 124}},
		"target 2": {coneSize{5, 88}, coneSize{8, 30}},
		"target 3": {coneSize{4, 88}, coneSize{5, 20}},
		"target 4": {coneSize{1, 16}, coneSize{}},
		"target 5": {coneSize{2, 16}, coneSize{}},
		"add4":     {coneSize{8, 160}, coneSize{27, 124}},
		"sbox6":    {coneSize{5, 88}, coneSize{8, 30}},
		"mix6":     {coneSize{14, 320}, coneSize{56, 333}},
	}
	measure := func(name, src string) {
		ln := mapDesign(t, src)
		v := newCombView(ln)
		var tb template
		var got sizes

		tb.reset(len(v.ins), v.keyLen)
		inLits := make([]int32, len(v.ins))
		for i := range inLits {
			inLits[i] = mkTLit(i+1, false)
		}
		v.buildCone(&tb, inLits, nil)
		checkClauses(t, &tb)
		got.Miter = coneSize{tb.nGates, len(tb.ends)}

		own, _ := lutMasks(ln, nil)
		key := make([]bool, 0, v.keyLen)
		for _, id := range v.luts {
			for r := 0; r < 1<<uint(len(ln.Nodes[id].In)); r++ {
				key = append(key, own[id]>>uint(r)&1 == 1)
			}
		}
		fixThird := func(b int) (bool, bool) { return key[b], b%3 == 0 }
		rng := rand.New(rand.NewSource(1))
		for p := 0; p < 8; p++ {
			for i := range inLits {
				inLits[i] = tConst0
				if rng.Intn(2) == 1 {
					inLits[i] = tConst1
				}
			}
			var keyFixed func(int) (bool, bool)
			if p%2 == 1 {
				keyFixed = fixThird
			}
			tb.reset(len(v.ins), v.keyLen)
			v.buildCone(&tb, inLits, keyFixed)
			checkClauses(t, &tb)
			got.Cones.Gates += tb.nGates
			got.Cones.Clauses += len(tb.ends)
		}
		if got != want[name] {
			t.Errorf("%s: %+v, want %+v", name, got, want[name])
		}
	}
	for i, src := range crossTargets {
		measure(fmt.Sprintf("target %d", i), src)
	}
	for _, tgt := range benchTargets {
		measure(tgt.name, tgt.src)
	}
}
