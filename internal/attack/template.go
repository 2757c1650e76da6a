package attack

import (
	"alice/internal/sat"
	"alice/internal/techmap"
)

// This file implements the CNF machinery of the overhauled attack
// engine:
//
//   - a clause *template*: a Tseitin encoding of (part of) the LUT
//     network built once over an abstract variable space, then
//     *stamped* into the solver any number of times by mapping the
//     abstract variables to concrete solver variables with base
//     offsets (shared inputs, per-copy keys, per-stamp gates) and
//     bulk-loading the clauses;
//   - the *multiplexer encoding* of a LUT: one gate variable, which
//     the LUT's distinct symbolic inputs select from the key bits of
//     the rows they address, with two clauses per row and no per-row
//     gate;
//   - *key-cone reduction*: when the inputs are a concrete
//     distinguishing input pattern, the encoder constant-propagates it
//     through the network, folds key bits the solver has already
//     proven at the root level, and emits clauses only for the part of
//     the cone that is still key-dependent. A LUT whose inputs are all
//     concrete reduces to a bare key literal (no clauses at all), and
//     one whose selected key bits are already fixed folds to a
//     constant, or to one of its input literals, that propagates
//     onward.
//
// Template literals (tlit, an int32) mirror the solver's literal
// encoding — (var<<1)|sign — over a 1-based abstract variable space
// partitioned as [1..nIn] inputs, (nIn..nIn+nKey] key bits,
// (nIn+nKey..] stamp-local gates. The two values below 1<<1 are
// reserved constants, chosen so tNeg works on them too.
const (
	tConst0 int32 = 0
	tConst1 int32 = 1
)

func mkTLit(tv int, neg bool) int32 {
	l := int32(tv) << 1
	if neg {
		l |= 1
	}
	return l
}

func tNeg(l int32) int32 { return l ^ 1 }

func tIsConst(l int32) bool { return l < 2 }

// template is a reusable clause template plus the scratch buffers of
// the cone builder; reset clears it for the next build without
// releasing memory.
type template struct {
	nIn    int
	nKey   int
	nGates int     // abstract gate variables allocated by this build
	lits   []int32 // clause literals, flat
	ends   []int32 // clause end offsets into lits

	// builder scratch
	state []int32 // per network node: tlit or tConst0/1
	outs  []int32
}

func (tb *template) reset(nIn, nKey int) {
	tb.nIn, tb.nKey, tb.nGates = nIn, nKey, 0
	tb.lits = tb.lits[:0]
	tb.ends = tb.ends[:0]
	tb.outs = tb.outs[:0]
}

func (tb *template) keyTLit(k int) int32 { return mkTLit(1+tb.nIn+k, false) }

func (tb *template) newGate() int32 {
	tb.nGates++
	return mkTLit(tb.nIn+tb.nKey+tb.nGates, false)
}

func (tb *template) addClause(lits ...int32) {
	tb.lits = append(tb.lits, lits...)
	tb.ends = append(tb.ends, int32(len(tb.lits)))
}

// lit maps a template literal to a concrete solver literal given the
// stamp's variable bases. Constants map to the solver's constant
// literals.
func (tb *template) lit(tl int32, inBase, keyBase, gateBase int, lfalse, ltrue sat.Lit) sat.Lit {
	switch tl {
	case tConst0:
		return lfalse
	case tConst1:
		return ltrue
	}
	tv := int(tl >> 1)
	neg := tl&1 == 1
	var v int
	switch {
	case tv <= tb.nIn:
		v = inBase + tv - 1
	case tv <= tb.nIn+tb.nKey:
		v = keyBase + tv - tb.nIn - 1
	default:
		v = gateBase + tv - tb.nIn - tb.nKey - 1
	}
	return sat.MkLit(v, neg)
}

// stamp materializes one copy of the template in the solver: it
// allocates the stamp's gate variables as one contiguous block, maps
// every clause literal, and bulk-loads the whole clause set in a
// single AddClausesFlat call. It returns the gate variable base (for
// resolving output literals of this stamp) and the ok flag of the
// clause load. buf is reusable scratch for the mapped literals.
func (tb *template) stamp(s *sat.Solver, inBase, keyBase int, lfalse, ltrue sat.Lit, buf *[]sat.Lit) (gateBase int, ok bool) {
	gateBase = s.NewVars(tb.nGates)
	mapped := (*buf)[:0]
	for _, tl := range tb.lits {
		mapped = append(mapped, tb.lit(tl, inBase, keyBase, gateBase, lfalse, ltrue))
	}
	*buf = mapped
	return gateBase, s.AddClausesFlat(mapped, tb.ends)
}

// buildCone encodes the combinational scan view into tb. inLits gives
// the template literal (or constant) of each of the view's inputs;
// keyFixed, when non-nil, reports key bits already proven constant
// (the encoder folds them and drops or simplifies the affected truth
// table rows). It returns one tlit (possibly constant) per observed
// output, valid until the next build reusing tb.
func (v *combView) buildCone(tb *template, inLits []int32, keyFixed func(int) (value, known bool)) []int32 {
	if cap(tb.state) < len(v.ln.Nodes) {
		tb.state = make([]int32, len(v.ln.Nodes))
	}
	state := tb.state[:len(v.ln.Nodes)]
	for i := range state {
		state[i] = tConst0
	}
	for i, id := range v.ins {
		state[id] = inLits[i]
	}
	kpos := 0
	for i, n := range v.ln.Nodes {
		switch n.Kind {
		case techmap.LConst0:
			state[i] = tConst0
		case techmap.LConst1:
			state[i] = tConst1
		case techmap.LLUT:
			state[i] = tb.lut(n.In, state, kpos, keyFixed)
			kpos += 1 << uint(len(n.In))
		}
	}
	outs := tb.outs[:0]
	for _, id := range v.outs {
		outs = append(outs, state[id])
	}
	tb.outs = outs
	return outs
}

// lut encodes one LUT node, whose key bits start at kpos, as a
// multiplexer and returns its output tlit. Constant pins fold into the
// row index; symbolic pins merge by variable, so a repeated pin, or a
// pin and its complement, is one selector. Each assignment a of the u
// selectors x addresses one row, whose term t(a) is the row's key
// literal, or a constant when keyFixed reports the bit. The output is
// one gate g with, per row, (x≠a) ∨ ¬t(a) ∨ g and (x≠a) ∨ t(a) ∨ ¬g,
// where (x≠a) is the disjunction of the selector literals that a
// falsifies; a constant t(a) keeps only the clause it does not
// satisfy. The selectors are distinct variables and every row has its
// own key bit, so no clause holds a duplicate or a complementary pair.
// With no selector the output is t(0), and when every term is constant
// and the row function is a constant, a selector or its negation, the
// output is that, with no gate.
func (tb *template) lut(in []int32, state []int32, kpos int, keyFixed func(int) (value, known bool)) int32 {
	var (
		sel    [techmap.MaxK]int32 // distinct selector variables, as positive tlits
		pinSel [techmap.MaxK]int   // per pin: its selector, -1 for a constant
		pinNeg [techmap.MaxK]bool  // per pin: the selector complemented
		term   [1 << techmap.MaxK]int32
	)
	base, u := 0, 0
	for k, id := range in {
		l := state[id]
		pinSel[k] = -1
		switch l {
		case tConst1:
			base |= 1 << uint(k)
		case tConst0:
		default:
			j := 0
			for j < u && sel[j] != l&^1 {
				j++
			}
			if j == u {
				sel[u] = l &^ 1
				u++
			}
			pinSel[k], pinNeg[k] = j, l&1 == 1
		}
	}
	rows := 1 << uint(u)
	allConst := true
	var fval uint64 // row function over the selectors, when allConst
	for a := 0; a < rows; a++ {
		row := base
		for k, j := range pinSel[:len(in)] {
			if j >= 0 && (a>>uint(j)&1 == 1) != pinNeg[k] {
				row |= 1 << uint(k)
			}
		}
		t := tb.keyTLit(kpos + row)
		if keyFixed != nil {
			if val, known := keyFixed(kpos + row); known {
				t = tConst0
				if val {
					t = tConst1
					fval |= 1 << uint(a)
				}
			}
		}
		allConst = allConst && tIsConst(t)
		term[a] = t
	}
	if u == 0 {
		return term[0]
	}
	if allConst {
		full := uint64(1)<<uint(rows) - 1
		switch fval {
		case 0:
			return tConst0
		case full:
			return tConst1
		}
		for j := 0; j < u; j++ {
			var on uint64 // rows with selector j true
			for a := 0; a < rows; a++ {
				if a>>uint(j)&1 == 1 {
					on |= 1 << uint(a)
				}
			}
			switch fval {
			case on:
				return sel[j]
			case full &^ on:
				return tNeg(sel[j])
			}
		}
	}
	g := tb.newGate()
	for a := 0; a < rows; a++ {
		if t := term[a]; t != tConst0 {
			tb.rowClause(sel[:u], a, tNeg(t), g) // t(a) → g
		}
		if t := term[a]; t != tConst1 {
			tb.rowClause(sel[:u], a, t, tNeg(g)) // ¬t(a) → ¬g
		}
	}
	return g
}

// rowClause appends (x≠a) ∨ lt ∨ lg, where (x≠a) holds, for each
// selector, the literal that assignment a falsifies. A constant lt is
// false here and is left out.
func (tb *template) rowClause(sel []int32, a int, lt, lg int32) {
	for j, x := range sel {
		if a>>uint(j)&1 == 1 {
			x = tNeg(x)
		}
		tb.lits = append(tb.lits, x)
	}
	if !tIsConst(lt) {
		tb.lits = append(tb.lits, lt)
	}
	tb.lits = append(tb.lits, lg)
	tb.ends = append(tb.ends, int32(len(tb.lits)))
}
