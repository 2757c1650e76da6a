// Package structural implements the oracle-free structural analysis of
// a redacted LUT network: the attack surface "Exploring eFPGA-based
// Redaction for IP Protection" (arxiv 2110.13346) calls structural and
// removal attacks, run defender-side so selection can price it.
//
// Unlike the oracle-guided SAT attack (internal/attack), this engine
// never queries a working chip. It reads the redacted design alone —
// the fabric LUT structure, its constant ties, and the programmed
// masks the defender is about to ship — and classifies every key
// (configuration) bit:
//
//   - Dead bits contribute nothing to the secret: truth-table rows that
//     can never be selected (constant or duplicate fabric inputs), or
//     whole LUTs with no path to any observable output. An attacker
//     need not learn them, so they add zero effective key length.
//   - Leaked bits are readable from structure: a LUT whose live
//     function collapses to a constant, a buffer, or an inverter
//     (single-input functions) is exactly the degenerate configuration
//     removal attacks recover, so its live mask bits are treated as
//     known to the attacker.
//   - Opaque bits are the residue — the effective key.
//
// The passes iterate to a fixpoint: each LUT resolved to a constant or
// a buffer shrinks the live cones of the LUTs it feeds (the same
// constant-folding shape as the attack engine's key-cone builder), so
// one degenerate LUT can cascade into many dead rows downstream.
//
// A third pass flags removal candidates: LUT outputs whose programmed
// cone is equivalent to an earlier net — structurally (ContentHash-
// style cone signatures) or functionally (64-lane random-signature
// refinement, WordSim-style). Candidates are reported, not priced:
// a signature match is probabilistic evidence, not proof.
package structural

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"alice/internal/techmap"
)

// Class is the verdict for one key bit.
type Class uint8

const (
	// Opaque bits are structurally hidden: they count toward the
	// effective key length.
	Opaque Class = iota
	// Dead bits can never influence an observable output; they add no
	// effective key length and no information.
	Dead
	// Leaked bits are recoverable from the redacted structure alone;
	// Bit.Value holds the recovered value.
	Leaked
)

func (c Class) String() string {
	switch c {
	case Opaque:
		return "opaque"
	case Dead:
		return "dead"
	case Leaked:
		return "leaked"
	}
	return "?"
}

// Cause is the provenance of a non-opaque classification.
type Cause uint8

const (
	// CauseNone marks opaque bits.
	CauseNone Cause = iota
	// CauseUnselectable: the truth-table row cannot be addressed given
	// the LUT's resolved constant and duplicate inputs (dead).
	CauseUnselectable
	// CauseUnobservable: the LUT has no structural path to a primary
	// output or a flip-flop D input (dead).
	CauseUnobservable
	// CauseConstInputs: every input of the LUT resolved to a constant,
	// so its output is the single addressed mask bit (leaked).
	CauseConstInputs
	// CauseConstMask: the live function is constant — every selectable
	// mask bit carries the same value (leaked).
	CauseConstMask
	// CauseSingleInput: the live function depends on exactly one input
	// net (a buffer or an inverter), the degenerate configuration
	// removal attacks recover (leaked).
	CauseSingleInput
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseUnselectable:
		return "unselectable-row"
	case CauseUnobservable:
		return "unobservable-lut"
	case CauseConstInputs:
		return "const-fed-lut"
	case CauseConstMask:
		return "constant-mask"
	case CauseSingleInput:
		return "single-input-function"
	}
	return "?"
}

// Bit is the per-key-bit provenance record. Bits are indexed exactly
// like the attack engine's key layout: LUT nodes in node-id order, each
// contributing 2^arity truth-table rows, so Report.Bits[i] describes
// the same key bit the SAT attack calls bit i.
type Bit struct {
	// LUT is the node id owning the bit; Row is its truth-table row.
	LUT int32
	Row int
	// Class/Cause classify the bit; Value is the bit's programmed value
	// (the recovered value for leaked bits, informational otherwise).
	Class Class
	Cause Cause
	Value bool
}

// Removal is one redundancy/removal-attack candidate: a LUT output
// whose programmed cone matched an earlier net's signature.
type Removal struct {
	// Node is the candidate LUT; EquivTo is the earlier node (input,
	// flip-flop, or LUT) it matched, with Inverted polarity.
	Node     int32
	EquivTo  int32
	Inverted bool
	// Structural is true when the match is an exact cone-hash equality
	// (proof); false means a random-signature match (candidate).
	Structural bool
}

// Report classifies every key bit of one LUT network.
type Report struct {
	// KeyBits is the total configuration size (sum of 2^arity over
	// LUTs), matching attack.Result.KeyBits.
	KeyBits int
	// LeakedBits / DeadBits / OpaqueBits partition KeyBits.
	LeakedBits int
	DeadBits   int
	OpaqueBits int
	// EffectiveKeyBits is the structurally hidden key length: the
	// opaque bit count. This is the security figure selection prices.
	EffectiveKeyBits int
	// Bits holds per-bit provenance, indexed by key-bit position.
	Bits []Bit
	// Removals lists redundancy/removal-attack candidates.
	Removals []Removal
	// Iterations is the number of fixpoint rounds the inference pass
	// needed (at least 2: the last round proves stability).
	Iterations int
}

// String renders the one-line security summary.
func (r *Report) String() string {
	return fmt.Sprintf("key=%d effective=%d (leaked %d, dead %d, removal candidates %d)",
		r.KeyBits, r.EffectiveKeyBits, r.LeakedBits, r.DeadBits, len(r.Removals))
}

// FixedKey returns every structurally resolved key bit as an
// index->value map in the attack engine's key-bit layout — the seeding
// input for attack.Options.FixedKey. Leaked bits carry their recovered
// values; dead bits are sound to fix at any value (they cannot affect
// observable behavior) and are fixed at their programmed value so a
// seeded attack reproduces the shipped bitstream exactly.
func (r *Report) FixedKey() map[int]bool {
	m := make(map[int]bool)
	for i, b := range r.Bits {
		if b.Class != Opaque {
			m[i] = b.Value
		}
	}
	return m
}

// Options tunes Analyze.
type Options struct {
	// SigRounds is the number of 64-lane random-signature rounds of the
	// removal pass (default 4, i.e. 256 random patterns per net). 0
	// means the default; negative disables the removal pass.
	SigRounds int
	// Seed drives the random-signature patterns; a fixed seed makes the
	// whole analysis deterministic. The zero seed is valid.
	Seed int64
}

// defaultSigRounds is the removal pass's default signature width: four
// 64-lane words, i.e. a 2^-256 per-pair collision chance for
// non-structural matches.
const defaultSigRounds = 4

// nval is a node's resolved value in the inference lattice: a constant,
// or a (possibly inverted) alias of a representative net. Inputs,
// flip-flop outputs (the scan model cuts sequential feedback, as in the
// attack engine), and opaque LUTs are their own representatives.
type nval struct {
	isConst bool
	c       bool  // constant value, when isConst
	net     int32 // representative node id, when !isConst
	neg     bool  // alias polarity, when !isConst
}

// lutInfo is the per-LUT outcome of one inference round.
type lutInfo struct {
	live  uint64 // selectable truth-table rows
	state nval   // resolved output value
	// constFed is true when every input resolved to a constant (the
	// CauseConstInputs provenance).
	constFed bool
	// singleIn is true when the live function collapsed to a buffer or
	// inverter (CauseSingleInput provenance beats CauseConstMask).
	singleIn bool
}

// Analyze runs the three structural passes over the network and
// classifies every key bit. The network carries the programmed masks
// (the defender's own bitstream), so leaked-bit values are exact.
func Analyze(ln *techmap.LUTNetwork, opts Options) (*Report, error) {
	if ln == nil {
		return nil, fmt.Errorf("structural: nil network")
	}
	if err := ln.Validate(); err != nil {
		return nil, fmt.Errorf("structural: %w", err)
	}

	n := len(ln.Nodes)
	val := make([]nval, n)
	info := make([]lutInfo, n)

	// Inference fixpoint (passes 1+2 interleaved): resolve every node,
	// re-running until no state changes. Constants and aliases only ever
	// strengthen, so the iteration is monotone; with topologically
	// ordered LUT inputs one forward pass converges and the second
	// proves it, but hand-built networks get the full loop.
	rounds := 0
	for {
		rounds++
		changed := false
		for i := range ln.Nodes {
			nd := &ln.Nodes[i]
			var nv nval
			switch nd.Kind {
			case techmap.LConst0:
				nv = nval{isConst: true, c: false}
			case techmap.LConst1:
				nv = nval{isConst: true, c: true}
			case techmap.LInput, techmap.LFF:
				nv = nval{net: int32(i)}
			case techmap.LLUT:
				li := resolveLUT(ln, int32(i), val)
				info[i] = li
				nv = li.state
			}
			if val[i] != nv {
				val[i] = nv
				changed = true
			}
		}
		if !changed || rounds > n+1 {
			break
		}
	}

	observable := markObservable(ln)

	rep := &Report{Iterations: rounds}
	for i := range ln.Nodes {
		if nd := &ln.Nodes[i]; nd.Kind == techmap.LLUT {
			rep.KeyBits += 1 << uint(len(nd.In))
		}
	}
	if rep.KeyBits > 0 {
		rep.Bits = make([]Bit, 0, rep.KeyBits)
	}
	for i := range ln.Nodes {
		nd := &ln.Nodes[i]
		if nd.Kind != techmap.LLUT {
			continue
		}
		li := &info[i]
		rows := 1 << uint(len(nd.In))
		for r := 0; r < rows; r++ {
			b := Bit{LUT: int32(i), Row: r, Value: nd.Mask&(1<<uint(r)) != 0}
			switch {
			case li.live&(1<<uint(r)) == 0:
				b.Class, b.Cause = Dead, CauseUnselectable
			case !observable[i]:
				b.Class, b.Cause = Dead, CauseUnobservable
			case li.state.isConst && li.constFed:
				b.Class, b.Cause = Leaked, CauseConstInputs
			case li.state.isConst:
				b.Class, b.Cause = Leaked, CauseConstMask
			case li.singleIn:
				b.Class, b.Cause = Leaked, CauseSingleInput
			}
			switch b.Class {
			case Dead:
				rep.DeadBits++
			case Leaked:
				rep.LeakedBits++
			default:
				rep.OpaqueBits++
			}
			rep.Bits = append(rep.Bits, b)
		}
	}
	rep.EffectiveKeyBits = rep.OpaqueBits

	sigRounds := opts.SigRounds
	if sigRounds == 0 {
		sigRounds = defaultSigRounds
	}
	if sigRounds > 0 {
		rep.Removals = removalCandidates(ln, val, observable, sigRounds, opts.Seed)
	}
	return rep, nil
}

// resolve chases alias chains to a constant or a representative net.
// Chains strictly descend node ids (a LUT only aliases one of its
// topologically earlier inputs; inputs and FFs are self-representing),
// so the walk terminates.
func resolve(val []nval, id int32, neg bool) nval {
	for {
		v := val[id]
		if v.isConst {
			if neg {
				v.c = !v.c
			}
			return v
		}
		if v.net == id {
			return nval{net: id, neg: neg}
		}
		neg = neg != v.neg
		id = v.net
	}
}

// resolveLUT computes one LUT's live rows and resolved output. This is
// the key-cone shape of the attack engine's template builder: constant
// pins fold into the row base, live pins partition into distinct
// symbolic nets, and the function is read off the programmed mask over
// the reachable rows only.
func resolveLUT(ln *techmap.LUTNetwork, id int32, val []nval) lutInfo {
	nd := &ln.Nodes[id]
	a := len(nd.In)
	var (
		pinConst [techmap.MaxK]bool // pin is a resolved constant
		pinVal   [techmap.MaxK]bool // its value
		pinNet   [techmap.MaxK]int  // else: index into nets
		pinNeg   [techmap.MaxK]bool // alias polarity
		nets     [techmap.MaxK]int32
	)
	u := 0
	for k := 0; k < a; k++ {
		v := resolve(val, nd.In[k], false)
		if v.isConst {
			pinConst[k], pinVal[k] = true, v.c
			continue
		}
		idx := -1
		for t := 0; t < u; t++ {
			if nets[t] == v.net {
				idx = t
				break
			}
		}
		if idx < 0 {
			idx = u
			nets[u] = v.net
			u++
		}
		pinNet[k], pinNeg[k] = idx, v.neg
	}

	// Enumerate the 2^u assignments of the distinct live nets: each
	// addresses exactly one truth-table row, so rows outside the image
	// are unselectable and the live function is fval over assignments.
	li := lutInfo{constFed: u == 0}
	var fval uint64
	for asg := 0; asg < 1<<uint(u); asg++ {
		row := 0
		for k := 0; k < a; k++ {
			on := pinVal[k]
			if !pinConst[k] {
				on = ((asg>>uint(pinNet[k]))&1 == 1) != pinNeg[k]
			}
			if on {
				row |= 1 << uint(k)
			}
		}
		li.live |= 1 << uint(row)
		if nd.Mask&(1<<uint(row)) != 0 {
			fval |= 1 << uint(asg)
		}
	}

	// Support of the live function over the distinct nets.
	dep, depCount := -1, 0
	for t := 0; t < u; t++ {
		for asg := 0; asg < 1<<uint(u); asg++ {
			if (fval>>uint(asg))&1 != (fval>>uint(asg^1<<uint(t)))&1 {
				dep, depCount = t, depCount+1
				break
			}
		}
	}
	switch depCount {
	case 0:
		li.state = nval{isConst: true, c: fval&1 != 0}
	case 1:
		// Exactly one live net matters: the function is a buffer or an
		// inverter of it (a constant would have zero support).
		li.singleIn = true
		inv := fval&1 != 0 // f(net=0) == 1 means inverter
		li.state = nval{net: nets[dep], neg: inv}
		// Re-resolve through the target in case it aliased further.
		li.state = resolve(val, nets[dep], inv)
		if li.state.isConst {
			li.singleIn = false
		}
	default:
		li.state = nval{net: id}
	}
	return li
}

// markObservable walks backward from every primary output and flip-flop
// D input (the scan model's observed points) through full structural
// fanin, marking reachable nodes. Flip-flop outputs are cut: their D
// cones are sinks in their own right. Pins are not support-pruned —
// a constant or duplicate pin still influenced the analysis (its value
// addresses the live rows), so its source must stay live for the
// classification to be flip-sound.
func markObservable(ln *techmap.LUTNetwork) []bool {
	seen := make([]bool, len(ln.Nodes))
	var stack []int32
	push := func(id int32) {
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for _, po := range ln.POs {
		push(po)
	}
	for _, ff := range ln.FFs {
		push(ln.Nodes[ff].In[0])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ln.Nodes[id].Kind != techmap.LLUT {
			continue // inputs, constants, and FF outputs are leaves
		}
		for _, in := range ln.Nodes[id].In {
			push(in)
		}
	}
	return seen
}

// removalCandidates is the redundancy/removal pass: every observable,
// still-opaque LUT is checked against all earlier nets for structural
// (exact cone hash) or functional (random-signature) equivalence, in
// either polarity. Matches are candidates for a removal attack — the
// attacker substitutes the earlier net for the fabric output and drops
// the cone — and are reported for pricing and inspection.
func removalCandidates(ln *techmap.LUTNetwork, val []nval, observable []bool, rounds int, seed int64) []Removal {
	n := len(ln.Nodes)
	sigs := make([]uint64, n*rounds) // node i's round r word at i*rounds+r
	rng := rand.New(rand.NewSource(seed ^ 0x5ee1))
	var ibuf [techmap.MaxK]uint64
	for round := 0; round < rounds; round++ {
		for i := range ln.Nodes {
			nd := &ln.Nodes[i]
			var w uint64
			switch nd.Kind {
			case techmap.LConst1:
				w = ^uint64(0)
			case techmap.LInput, techmap.LFF:
				w = rng.Uint64() // scan model: FF outputs are free inputs
			case techmap.LLUT:
				ins := ibuf[:len(nd.In)]
				for k, in := range nd.In {
					ins[k] = sigs[int(in)*rounds+round]
				}
				w = techmap.EvalMaskWords(nd.Mask, ins)
			}
			sigs[i*rounds+round] = w
		}
	}

	// Structural cone hashes, ContentHash-style: kind, identity for
	// nets (two different inputs are different hashes), mask plus child
	// hashes for LUTs. Equal hashes prove equal cones over equal nets.
	// Only signature matches need them, so they are computed on demand.
	// A node's hash covers its inputs in node order: an input at or past
	// the node (a flip-flop or primary input) contributes zeros.
	chash := make([][sha256.Size]byte, n)
	hashed := make([]bool, n)
	var zero [sha256.Size]byte
	var coneHash func(id int32) *[sha256.Size]byte
	coneHash = func(id int32) *[sha256.Size]byte {
		if hashed[id] {
			return &chash[id]
		}
		nd := &ln.Nodes[id]
		var hbuf [8]byte
		h := sha256.New()
		h.Write([]byte{byte(nd.Kind)})
		switch nd.Kind {
		case techmap.LInput, techmap.LFF:
			binary.LittleEndian.PutUint64(hbuf[:], uint64(id))
			h.Write(hbuf[:])
		case techmap.LLUT:
			binary.LittleEndian.PutUint64(hbuf[:], nd.Mask)
			h.Write(hbuf[:])
			for _, in := range nd.In {
				c := &zero
				if in < id {
					c = coneHash(in)
				}
				h.Write(c[:])
			}
		}
		h.Sum(chash[id][:0])
		hashed[id] = true
		return &chash[id]
	}

	// First-seen signature index, both polarities. Keys are the packed
	// signature words; iteration is in node order, so the reported
	// EquivTo is always the earliest match and the output deterministic.
	key := make([]byte, 8*rounds)
	sigKey := func(id int32, inv bool) []byte {
		for r, w := range sigs[int(id)*rounds : (int(id)+1)*rounds] {
			if inv {
				w = ^w
			}
			binary.LittleEndian.PutUint64(key[8*r:], w)
		}
		return key
	}
	first := make(map[string]int32, n)
	var out []Removal
	for i := range ln.Nodes {
		nd := &ln.Nodes[i]
		id := int32(i)
		switch nd.Kind {
		case techmap.LInput, techmap.LFF, techmap.LLUT:
		default:
			continue // constant equivalence is pass 2's job
		}
		isCand := nd.Kind == techmap.LLUT && observable[i] &&
			!val[i].isConst && val[i].net == id && !val[i].neg
		if isCand {
			if j, ok := first[string(sigKey(id, false))]; ok {
				out = append(out, Removal{Node: id, EquivTo: j, Structural: *coneHash(id) == *coneHash(j)})
				continue // one candidate row per node
			}
			if j, ok := first[string(sigKey(id, true))]; ok {
				out = append(out, Removal{Node: id, EquivTo: j, Inverted: true})
				continue
			}
		}
		// Register as a target for later nodes (skip LUTs pass 2 already
		// resolved: their representative net is registered instead).
		if nd.Kind != techmap.LLUT || (val[i].net == id && !val[i].isConst) {
			if _, ok := first[string(sigKey(id, false))]; !ok {
				first[string(key)] = id
			}
		}
	}
	return out
}
