// Package attack implements the oracle-guided SAT attack of the eFPGA
// redaction threat model (Sec. 2.1 of the ALICE paper): the attacker
// holds the fabric netlist (the mapped LUT structure, i.e. routing) and
// a working chip usable as an oracle, and tries to recover the secret
// configuration — the LUT truth-table masks. Flip-flops are treated as
// scan-accessible (pseudo-inputs/outputs), matching the paper's
// "fully-scanned and unlocked design" assumption.
//
// The attack demonstrates the paper's security claim quantitatively:
// its cost grows rapidly with the number of key (configuration) bits,
// i.e. with fabric size and utilization.
//
// The engine keeps the classic miter/distinguishing-input loop but
// replaces its CNF plumbing end to end:
//
//   - the miter's two network copies are stamped from one CNF template
//     (shared input variables, per-copy key and gate blocks, bulk
//     clause loading) instead of two independent Tseitin walks;
//   - each LUT is one multiplexer gate over its key bits, two clauses
//     per truth-table row, not one AND gate per row under an OR;
//   - each distinguishing input is constant-propagated through the
//     network, so the per-iteration constraints cover only the still
//     key-dependent cone — a LUT fed by concrete values contributes a
//     bare key literal, and key bits the solver has proven at the root
//     level fold to constants that shrink the cone further;
//   - the "no distinguishing input remains" query runs under a solver
//     assumption that activates the miter's difference clause, so the
//     same incremental solver answers the final witness-key query with
//     the assumption dropped — there is no separate witness solver and
//     no third encoding of the network.
package attack

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"alice/internal/sat"
	"alice/internal/techmap"
)

// ErrAttackBudget is the sentinel wrapped by *BudgetError when the
// attack exhausts its distinguishing-input budget before converging;
// test with errors.Is.
var ErrAttackBudget = errors.New("attack budget exhausted")

// BudgetError reports a non-converged attack together with how much
// work the budget bought — callers (e.g. alicebench sweeps) use it to
// report "survived N DIPs / M conflicts" as a result in its own right
// rather than a generic failure.
type BudgetError struct {
	// MaxIters is the distinguishing-input budget (0 if the conflict
	// budget tripped first).
	MaxIters int
	// MaxConflicts is the conflict budget (0 if the iteration budget
	// tripped first).
	MaxConflicts int
	// Iterations is the number of distinguishing inputs processed
	// before exhaustion.
	Iterations int
	// KeyBits is the size of the attacked configuration.
	KeyBits int
	// Conflicts, Decisions, Propagations are the solver totals at exhaustion.
	Conflicts    int
	Decisions    int
	Propagations int
}

func (e *BudgetError) Error() string {
	if e.MaxConflicts > 0 {
		return fmt.Sprintf("attack: conflict budget %d exhausted after %d distinguishing inputs (%d key bits)",
			e.MaxConflicts, e.Iterations, e.KeyBits)
	}
	return fmt.Sprintf("attack: not converged after %d distinguishing inputs (%d key bits, %d conflicts)",
		e.MaxIters, e.KeyBits, e.Conflicts)
}

// Unwrap makes errors.Is(err, ErrAttackBudget) work.
func (e *BudgetError) Unwrap() error { return ErrAttackBudget }

// DefaultWarmupPatterns is the warm-up batch applied when Options
// neither sets WarmupPatterns nor opts out: exactly one word of the
// bit-parallel oracle, so the whole default warm-up costs a single
// 64-lane network evaluation plus root-level clause stamping.
const DefaultWarmupPatterns = 64

// Options configures an attack run.
//
// The zero value is NOT a usable configuration: a zero MaxIters is an
// empty distinguishing-input budget, not an unlimited one, and
// RecoverBitstreamOpts rejects it with an error. Start from
// DefaultBudget() for the production sweep budgets or Unlimited() for
// a run that must converge on its own.
type Options struct {
	// MaxIters bounds the number of distinguishing inputs; exhaustion
	// returns a *BudgetError. Zero or negative is an empty budget and
	// is rejected — use Unlimited() to run without one.
	MaxIters int
	// Seed drives distinguishing-input tie-breaking: it seeds the
	// solver's decision phases (and the warm-up patterns, if any), so
	// different seeds explore different DIP sequences while a fixed
	// seed is fully deterministic.
	Seed int64
	// WarmupPatterns applies this many seed-driven random oracle
	// queries before the first SAT query. The patterns are evaluated
	// 64 lanes at a time on the bit-parallel oracle, so each batch
	// costs one word-level network walk (no solving) and typically
	// pins key bits at the solver's root level, cutting the
	// distinguishing-input count roughly tenfold on the corpus. Zero
	// means DefaultWarmupPatterns; set NoWarmup to measure pure
	// SAT-attack cost instead.
	WarmupPatterns int
	// NoWarmup disables the random-simulation warm-up entirely,
	// overriding WarmupPatterns. Use it to measure pure SAT-attack
	// cost (every key constraint comes from a SAT-chosen
	// distinguishing input) or to reproduce pre-warm-up baselines.
	NoWarmup bool
	// MaxConflicts bounds the total solver conflicts across the attack
	// (0 = unlimited). Unlike MaxIters it bounds *time*: a fabric too
	// strong to crack exhausts it deterministically instead of hanging
	// the sweep, and the returned *BudgetError reports how much key
	// survived how much work.
	MaxConflicts int
	// FixedKey pins key bits before the attack starts: each entry adds
	// unit clauses on both miter key copies at that bit position (key
	// bits are indexed LUT-node order, 2^arity rows per LUT — the same
	// layout Result.KeyBits counts). The structural analyzer
	// (internal/structural) emits exactly this map for its leaked and
	// dead bits; folding them in shrinks every key cone touching them,
	// which measurably cuts the distinguishing-input count.
	FixedKey map[int]bool
}

// Default attack budgets, shared by the benchmark sweep and the serve
// daemon: generous enough to crack every production fabric the corpus
// cracks, bounded enough that an uncrackable fabric exhausts
// deterministically instead of hanging a sweep.
const (
	DefaultMaxIters     = 20_000
	DefaultMaxConflicts = 2_000_000
)

// DefaultBudget returns Options carrying the production budgets. Callers
// overlay seed/warm-up settings on top.
func DefaultBudget() Options {
	return Options{MaxIters: DefaultMaxIters, MaxConflicts: DefaultMaxConflicts}
}

// Unlimited returns Options with no iteration or conflict budget — the
// attack runs until it converges (or forever: prefer DefaultBudget()
// plus a deadline for anything unattended). This is the explicit
// spelling of what a zero-valued Options looks like it means but does
// not mean.
func Unlimited() Options {
	return Options{MaxIters: math.MaxInt}
}

// EffectiveWarmup resolves the warm-up pattern count: NoWarmup wins,
// an explicit WarmupPatterns is honored, and the zero value gets the
// default batch.
func (o Options) EffectiveWarmup() int {
	if o.NoWarmup {
		return 0
	}
	if o.WarmupPatterns > 0 {
		return o.WarmupPatterns
	}
	return DefaultWarmupPatterns
}

// Result reports an attack run.
type Result struct {
	// KeyBits is the number of configuration bits attacked (2^arity per
	// LUT: the functional part of the bitstream).
	KeyBits int
	// Iterations is the number of distinguishing input patterns needed.
	Iterations int
	// Masks is the recovered configuration (per LUT node id).
	Masks map[int32]uint64
	// Solver statistics.
	Conflicts    int
	Decisions    int
	Propagations int
	// Learned-clause maintenance: reduction passes and clauses deleted
	// (the attack's memory stays bounded on long runs).
	Reductions     int
	DeletedClauses int
}

// combView is the scan-model combinational view of a LUT network:
// inputs are PIs plus FF outputs, outputs are POs plus FF D-inputs.
type combView struct {
	ln     *techmap.LUTNetwork
	ins    []int32 // node ids acting as free inputs
	outs   []int32 // node ids observed
	inPos  map[int32]int
	luts   []int32 // LUT node ids in topological order
	keyLen int
}

func newCombView(ln *techmap.LUTNetwork) *combView {
	v := &combView{ln: ln, inPos: make(map[int32]int)}
	for _, pi := range ln.PIs {
		v.inPos[pi] = len(v.ins)
		v.ins = append(v.ins, pi)
	}
	for _, ff := range ln.FFs {
		v.inPos[ff] = len(v.ins)
		v.ins = append(v.ins, ff)
	}
	v.outs = append(v.outs, ln.POs...)
	for _, ff := range ln.FFs {
		v.outs = append(v.outs, ln.Nodes[ff].In[0])
	}
	for i, n := range ln.Nodes {
		if n.Kind == techmap.LLUT {
			v.luts = append(v.luts, int32(i))
			v.keyLen += 1 << uint(len(n.In))
		}
	}
	return v
}

// evalInto computes the combinational outputs for given inputs and
// masks into out, using val as node-value scratch; both must have the
// right lengths (len(v.outs) and len(v.ln.Nodes)).
func (v *combView) evalInto(out, val, inputs []bool, masks map[int32]uint64) {
	for i := range val {
		val[i] = false
	}
	for i, id := range v.ins {
		val[id] = inputs[i]
	}
	for i, n := range v.ln.Nodes {
		switch n.Kind {
		case techmap.LConst1:
			val[i] = true
		case techmap.LLUT:
			idx := 0
			for k, in := range n.In {
				if val[in] {
					idx |= 1 << uint(k)
				}
			}
			mask := n.Mask
			if m, ok := masks[int32(i)]; ok {
				mask = m
			}
			val[i] = mask&(1<<uint(idx)) != 0
		}
	}
	for i, id := range v.outs {
		out[i] = val[id]
	}
}

// evalWordsInto is evalInto bit-parallel over 64 lanes: inputs[i]
// carries scan input i across the lanes, and out[i] holds observed
// output i the same way. One call evaluates 64 oracle queries, which
// is what makes warm-up and VerifyKey sweeps cheap.
func (v *combView) evalWordsInto(out, val, inputs []uint64, masks map[int32]uint64, ibuf *[techmap.MaxK]uint64) {
	for i := range val {
		val[i] = 0
	}
	for i, id := range v.ins {
		val[id] = inputs[i]
	}
	for i, n := range v.ln.Nodes {
		switch n.Kind {
		case techmap.LConst1:
			val[i] = ^uint64(0)
		case techmap.LLUT:
			ins := ibuf[:len(n.In)]
			for k, in := range n.In {
				ins[k] = val[in]
			}
			mask := n.Mask
			if m, ok := masks[int32(i)]; ok {
				mask = m
			}
			val[i] = techmap.EvalMaskWords(mask, ins)
		}
	}
	for i, id := range v.outs {
		out[i] = val[id]
	}
}

func tseitinXor(s *sat.Solver, a, b sat.Lit) sat.Lit {
	g := sat.MkLit(s.NewVar(), false)
	s.AddClause(g.Neg(), a, b)
	s.AddClause(g.Neg(), a.Neg(), b.Neg())
	s.AddClause(g, a.Neg(), b)
	s.AddClause(g, a, b.Neg())
	return g
}

// RecoverBitstreamOpts runs the oracle-guided SAT attack against the
// LUT network's configuration. The network itself acts as the oracle
// (a working programmed chip). On budget exhaustion the returned error
// wraps ErrAttackBudget (a *BudgetError with the work done so far).
// The seed diversifies distinguishing-input tie-breaking (it seeds the
// solver's decision phases), so different seeds explore different DIP
// sequences; a fixed seed is fully deterministic. Evaluate wraps it
// with the key check every verdict needs, and with cancellation.
func RecoverBitstreamOpts(ln *techmap.LUTNetwork, opts Options) (*Result, error) {
	return recoverBitstream(context.Background(), ln, opts)
}

// recoverBitstream is RecoverBitstreamOpts under ctx: the warm-up
// checks it once per batch, the DIP loop after each query, and the
// solver, interrupted when ctx is done, at its next conflict. A
// cancelled attack returns ctx's error.
func recoverBitstream(ctx context.Context, ln *techmap.LUTNetwork, opts Options) (*Result, error) {
	maxIters, seed := opts.MaxIters, opts.Seed
	if maxIters <= 0 {
		return nil, fmt.Errorf("attack: MaxIters %d is an empty budget, not an unlimited one; use attack.Unlimited() or attack.DefaultBudget()", maxIters)
	}
	v := newCombView(ln)
	if len(v.luts) == 0 {
		return nil, fmt.Errorf("attack: network has no LUTs")
	}
	s := sat.NewSolver()
	defer context.AfterFunc(ctx, s.Interrupt)()
	// The solver saves no phases, by design: the DIP query wants a
	// *diverse* model each iteration (the previous model's neighbourhood
	// has just been excluded), and measured on the attack corpus, saved
	// phases steered the search back into the refuted region.
	ltrue := sat.MkLit(s.NewVar(), false)
	s.AddClause(ltrue) // constant-true literal
	lfalse := ltrue.Neg()

	nIn := len(v.ins)
	xb := s.NewVars(nIn)       // shared distinguishing-input variables
	k1b := s.NewVars(v.keyLen) // key copy 1 (also the witness key)
	k2b := s.NewVars(v.keyLen) // key copy 2
	s.SeedPhases(seed)         // DIP tie-breaking: seed-dependent first models

	// Structurally resolved key bits arrive as root-level unit clauses
	// on both copies, in bit order for determinism.
	for k := range opts.FixedKey {
		if k < 0 || k >= v.keyLen {
			return nil, fmt.Errorf("attack: FixedKey bit %d outside key [0,%d)", k, v.keyLen)
		}
	}
	for k := 0; k < v.keyLen; k++ {
		if b, ok := opts.FixedKey[k]; ok {
			s.AddClause(sat.MkLit(k1b+k, !b))
			s.AddClause(sat.MkLit(k2b+k, !b))
		}
	}

	// Miter: one symbolic template of the network, stamped twice with
	// shared inputs and per-copy key/gate blocks.
	var tb template
	var stampBuf []sat.Lit
	tb.reset(nIn, v.keyLen)
	inLits := make([]int32, nIn)
	for i := range inLits {
		inLits[i] = mkTLit(i+1, false)
	}
	outs := v.buildCone(&tb, inLits, nil)
	g1, _ := tb.stamp(s, xb, k1b, lfalse, ltrue, &stampBuf)
	g2, _ := tb.stamp(s, xb, k2b, lfalse, ltrue, &stampBuf)

	// The difference clause is guarded by an activation literal: the
	// distinguishing-input query solves under the assumption act, and
	// the final witness-key query simply drops the assumption.
	act := sat.MkLit(s.NewVar(), false)
	var diffs []sat.Lit
	for _, o := range outs {
		o1 := tb.lit(o, xb, k1b, g1, lfalse, ltrue)
		o2 := tb.lit(o, xb, k2b, g2, lfalse, ltrue)
		if o1 == o2 {
			continue // constant or key-independent output: never differs
		}
		diffs = append(diffs, tseitinXor(s, o1, o2))
	}
	diffs = append(diffs, act.Neg())
	s.AddClause(diffs...)

	// keyFixed folds key bits both miter copies agree on at the root
	// level — sound for a cone stamped against either key block.
	keyFixed := func(k int) (value, known bool) {
		v1, f1 := s.FixedValue(sat.MkLit(k1b+k, false))
		if !f1 {
			return false, false
		}
		v2, f2 := s.FixedValue(sat.MkLit(k2b+k, false))
		if !f2 || v1 != v2 {
			return false, false
		}
		return v1, true
	}

	res := &Result{KeyBits: v.keyLen}
	dip := make([]bool, nIn)
	dipLits := make([]int32, nIn)
	want := make([]bool, len(v.outs))
	val := make([]bool, len(v.ln.Nodes))
	fill := func() {
		res.Conflicts = s.Conflicts
		res.Decisions = s.Decisions
		res.Propagations = s.Propagations
		res.Reductions = s.Reductions
		res.DeletedClauses = s.Deleted
	}
	// stampIOConstraint stamps "both key copies reproduce the oracle on
	// the pattern in dip, whose oracle response is in want" using the
	// key-cone-reduced encoding. addIOConstraint is the scalar-oracle
	// wrapper; the warm-up batches 64 oracle responses per word
	// evaluation and stamps each lane through stampIOConstraint
	// directly.
	stampIOConstraint := func() error {
		tb.reset(nIn, v.keyLen)
		for i := range dipLits {
			if dip[i] {
				dipLits[i] = tConst1
			} else {
				dipLits[i] = tConst0
			}
		}
		couts := v.buildCone(&tb, dipLits, keyFixed)
		for i, o := range couts {
			if tIsConst(o) {
				if (o == tConst1) != want[i] {
					return fmt.Errorf("attack: folded output %d contradicts the oracle (internal error)", i)
				}
				continue
			}
			if want[i] {
				tb.addClause(o)
			} else {
				tb.addClause(tNeg(o))
			}
		}
		tb.stamp(s, xb, k1b, lfalse, ltrue, &stampBuf)
		tb.stamp(s, xb, k2b, lfalse, ltrue, &stampBuf)
		return nil
	}
	addIOConstraint := func() error {
		v.evalInto(want, val, dip, nil)
		return stampIOConstraint()
	}
	// Random-simulation warm-up (on by default, see Options.NoWarmup):
	// a batch of seed-driven oracle queries constrains the key space
	// before the first SAT query. The oracle runs bit-parallel — one
	// word-level network walk answers 64 patterns — and each lane then
	// costs only a key-cone walk plus a handful of clauses (no
	// solving). The root-level key bits the batch pins make every later
	// cone smaller, so the SAT loop spends its iterations on the hard
	// distinguishing inputs only.
	if warmup := opts.EffectiveWarmup(); warmup > 0 {
		rng := rand.New(rand.NewSource(seed))
		win := make([]uint64, nIn)
		wout := make([]uint64, len(v.outs))
		wval := make([]uint64, len(v.ln.Nodes))
		var ibuf [techmap.MaxK]uint64
		for done := 0; done < warmup; done += 64 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			batch := warmup - done
			if batch > 64 {
				batch = 64
			}
			for i := range win {
				win[i] = rng.Uint64()
			}
			v.evalWordsInto(wout, wval, win, nil, &ibuf)
			for L := 0; L < batch; L++ {
				for i := range dip {
					dip[i] = (win[i]>>uint(L))&1 == 1
				}
				for i := range want {
					want[i] = (wout[i]>>uint(L))&1 == 1
				}
				if err := stampIOConstraint(); err != nil {
					return nil, err
				}
			}
		}
	}
	budgetErr := func(iter int) *BudgetError {
		fill()
		return &BudgetError{
			MaxConflicts: opts.MaxConflicts,
			Iterations:   iter,
			KeyBits:      v.keyLen,
			Conflicts:    res.Conflicts,
			Decisions:    res.Decisions,
			Propagations: res.Propagations,
		}
	}
	for iter := 0; iter < maxIters; iter++ {
		rem := 0 // unlimited
		if opts.MaxConflicts > 0 {
			rem = opts.MaxConflicts - s.Conflicts
			if rem <= 0 {
				return nil, budgetErr(iter)
			}
		}
		satisfiable, decided := s.SolveBudgeted(rem, act)
		if err := ctx.Err(); err != nil {
			return nil, err // an interrupted query is undecided, not over budget
		}
		if !decided {
			return nil, budgetErr(iter)
		}
		if !satisfiable {
			// No distinguishing input remains: any key satisfying the
			// accumulated I/O constraints is functionally correct. The
			// constraints are unconditional clauses, so the same solver
			// yields a witness once the miter assumption is dropped.
			res.Iterations = iter
			witness, decided := s.SolveBudgeted(0)
			if !decided {
				return nil, ctx.Err()
			}
			if !witness {
				return nil, fmt.Errorf("attack: constraint set unsatisfiable (internal error)")
			}
			fill()
			res.Masks = readMasks(v, s, k1b)
			return res, nil
		}
		// Distinguishing input pattern from the model; constrain both key
		// copies to reproduce the oracle on it (key-cone reduced).
		for i := 0; i < nIn; i++ {
			dip[i] = s.ValueOf(xb + i)
		}
		if err := addIOConstraint(); err != nil {
			return nil, err
		}
	}
	fill()
	return nil, &BudgetError{
		MaxIters:     maxIters,
		Iterations:   maxIters,
		KeyBits:      v.keyLen,
		Conflicts:    res.Conflicts,
		Decisions:    res.Decisions,
		Propagations: res.Propagations,
	}
}

// readMasks converts the key model at the given variable base into
// per-LUT masks.
func readMasks(v *combView, s *sat.Solver, keyBase int) map[int32]uint64 {
	masks := make(map[int32]uint64, len(v.luts))
	kpos := 0
	for _, id := range v.luts {
		rows := 1 << uint(len(v.ln.Nodes[id].In))
		var m uint64
		for idx := 0; idx < rows; idx++ {
			if s.ValueOf(keyBase + kpos + idx) {
				m |= 1 << uint(idx)
			}
		}
		kpos += rows
		masks[id] = m
	}
	return masks
}

// VerifyKey checks a recovered configuration against the oracle over
// random scan patterns; it returns the number of mismatching patterns.
// Patterns run 64 lanes at a time on the bit-parallel evaluator, so
// the sweep costs ~patterns/64 network walks per configuration.
func VerifyKey(ln *techmap.LUTNetwork, masks map[int32]uint64, patterns int, seed int64) int {
	v := newCombView(ln)
	r := rand.New(rand.NewSource(seed))
	bad := 0
	in := make([]uint64, len(v.ins))
	want := make([]uint64, len(v.outs))
	got := make([]uint64, len(v.outs))
	val := make([]uint64, len(v.ln.Nodes))
	var ibuf [techmap.MaxK]uint64
	for p := 0; p < patterns; p += 64 {
		batch := patterns - p
		if batch > 64 {
			batch = 64
		}
		for i := range in {
			in[i] = r.Uint64()
		}
		v.evalWordsInto(want, val, in, nil, &ibuf)
		v.evalWordsInto(got, val, in, masks, &ibuf)
		var diff uint64
		for i := range want {
			diff |= want[i] ^ got[i]
		}
		if batch < 64 {
			diff &= (1 << uint(batch)) - 1
		}
		bad += bits.OnesCount64(diff)
	}
	return bad
}

// Key-check parameters of Evaluate: every cracked verdict is backed by
// a VerifyKey sweep of this many patterns from this seed.
const (
	verifyPatterns = 300
	verifySeed     = 2
)

// Verdict is one budgeted attack as Evaluate reports it: the fabric
// was either cracked with a verified key or survived the budget.
type Verdict struct {
	// KeyBits is the number of configuration bits attacked.
	KeyBits int
	// Cracked is true when the attack converged and its key passed the
	// oracle check; false means the fabric survived the budget.
	Cracked bool
	// DIPs, Conflicts and Propagations measure the attack's work until
	// convergence or exhaustion.
	DIPs         int
	Conflicts    int
	Propagations int
	// Masks is the recovered configuration (per LUT node id), set only
	// when Cracked.
	Masks map[int32]uint64
}

// Evaluate runs the budgeted attack and decides what counts as a
// crack: budget exhaustion is a verdict (Cracked false, with the work
// done), not an error, and a converged key must reproduce the oracle on
// every pattern of a VerifyKey sweep, or Evaluate returns an error
// naming the bad-pattern count. Any other attack error is returned
// unchanged. Cancelling ctx stops the attack within one conflict and
// returns ctx's error, not a verdict. Structural seeding stays with
// the caller, through opts.FixedKey.
func Evaluate(ctx context.Context, ln *techmap.LUTNetwork, opts Options) (Verdict, error) {
	res, err := recoverBitstream(ctx, ln, opts)
	var be *BudgetError
	if errors.As(err, &be) {
		return Verdict{KeyBits: be.KeyBits, DIPs: be.Iterations, Conflicts: be.Conflicts, Propagations: be.Propagations}, nil
	}
	if err != nil {
		return Verdict{}, err
	}
	if bad := VerifyKey(ln, res.Masks, verifyPatterns, verifySeed); bad != 0 {
		return Verdict{}, fmt.Errorf("attack: recovered key wrong on %d of %d patterns", bad, verifyPatterns)
	}
	return Verdict{
		KeyBits:      res.KeyBits,
		Cracked:      true,
		DIPs:         res.Iterations,
		Conflicts:    res.Conflicts,
		Propagations: res.Propagations,
		Masks:        res.Masks,
	}, nil
}
