package main

import (
	"context"
	"errors"
	"fmt"

	"alice"
	"alice/internal/attack"
	"alice/internal/structural"
	"alice/internal/techmap"
)

// attackSeed drives every attack's distinguishing-input choices. It is
// fixed, not the workload seed: the DIP sequence, and with it the work
// under a DIP budget, swings several-fold between attack seeds, which
// would bury any change in the engine's speed.
const attackSeed = 1

// keyCheckPatterns is how many random patterns a cracked key must
// reproduce the oracle on.
const keyCheckPatterns = 300

// attackCase is one fabric of a cfg1 winning solution and the budget
// that fixes the attack's work on it.
type attackCase struct {
	design  string
	fabric  int // index in the solution
	keyBits int // functional key size, pinned so the right fabric is attacked
	budget  attack.Options
	// dipHeavy items price the per-DIP encode and solve loop;
	// singleQuery items spend their budget in one hard SAT query.
	dipHeavy, singleQuery bool
}

var attackCorpus = []attackCase{
	// Cracks in one DIP; the structural analysis leaks 32 of its bits.
	{design: "gcd", fabric: 1, keyBits: 216, budget: attack.DefaultBudget()},
	// The budgets keep each item under a second on two cores; uncapped,
	// gcd 4x4 cracks in 51 DIPs (~12 s) and the usb_phy fabrics take
	// minutes.
	{design: "gcd", fabric: 0, keyBits: 520, budget: attack.Options{MaxIters: 25, MaxConflicts: attack.DefaultMaxConflicts}, dipHeavy: true},
	{design: "usb_phy", fabric: 0, keyBits: 1118, budget: attack.Options{MaxIters: 40, MaxConflicts: attack.DefaultMaxConflicts}, dipHeavy: true},
	{design: "usb_phy", fabric: 1, keyBits: 1080, budget: attack.Options{MaxIters: 25, MaxConflicts: attack.DefaultMaxConflicts}, dipHeavy: true},
	{design: "fir", fabric: 0, keyBits: 1804, budget: attack.Options{MaxIters: attack.DefaultMaxIters, MaxConflicts: 8_000}, singleQuery: true},
}

func (ac attackCase) name() string { return fmt.Sprintf("%s/%d", ac.design, ac.fabric) }

// network picks the case's fabric out of its design's winning solution.
func (ac attackCase) network(sol *alice.Solution) (*techmap.LUTNetwork, error) {
	if ac.fabric >= len(sol.Fabrics) {
		return nil, fmt.Errorf("%s: solution has no fabric %d", ac.design, ac.fabric)
	}
	f := sol.Fabrics[ac.fabric]
	if f.Structural == nil || f.Structural.KeyBits != ac.keyBits {
		return nil, fmt.Errorf("%s: fabric %d is not the pinned %d-bit fabric", ac.design, ac.fabric, ac.keyBits)
	}
	return f.Fabric.LUTs, nil
}

// runAttack is the attack_fabrics workload. Set-up runs the fast-mode
// cfg1 flows that produce the fabrics; each item analyzes one fabric
// structurally, attacks it seeded with the structurally known key bits,
// and checks a cracked key against the oracle.
func runAttack(ctx context.Context, r *run) error {
	nets := make(map[string]*techmap.LUTNetwork)
	if err := r.timeSetup(func() error {
		sols := make(map[string]*alice.Solution)
		for _, ac := range attackCorpus {
			sol, ok := sols[ac.design]
			if !ok {
				var err error
				if sol, _, err = winningSolution(ctx, ac.design); err != nil {
					return err
				}
				sols[ac.design] = sol
			}
			ln, err := ac.network(sol)
			if err != nil {
				return err
			}
			nets[ac.name()] = ln
		}
		return nil
	}); err != nil {
		return err
	}
	var items []item
	for _, ac := range attackCorpus {
		items = append(items, attackItem(ac, nets[ac.name()]))
	}
	r.runItems(ctx, items)
	return nil
}

// attackOutcome is what one attack item measured.
type attackOutcome struct {
	effectiveBits int
	cracked       bool
	dips          int
	conflicts     int
	propagations  int
}

// attackOne runs one item's three calls, each under its own span when
// traced: structural analysis, the seeded attack, and the key check.
func attackOne(tr *tracer, parent *span, ac attackCase, ln *techmap.LUTNetwork) (attackOutcome, error) {
	var o attackOutcome
	sp := tr.begin(parent, "structural.analyze")
	s, err := structural.Analyze(ln, structural.Options{Seed: 1})
	if err != nil {
		tr.end(sp)
		return o, err
	}
	o.effectiveBits = s.EffectiveKeyBits
	tr.end(sp, "effective_bits", o.effectiveBits)

	opts := ac.budget
	opts.Seed = attackSeed
	opts.FixedKey = s.FixedKey()
	sp = tr.begin(parent, "attack.recover")
	res, err := attack.RecoverBitstreamOpts(ln, opts)
	var be *attack.BudgetError
	switch {
	case err == nil:
		o.cracked = true
		o.dips, o.conflicts, o.propagations = res.Iterations, res.Conflicts, res.Propagations
	case errors.As(err, &be):
		// Surviving the budget is the security result, not a failure.
		o.dips, o.conflicts, o.propagations = be.Iterations, be.Conflicts, be.Propagations
	default:
		tr.end(sp)
		return o, err
	}
	tr.end(sp, "dips", o.dips, "conflicts", o.conflicts, "propagations", o.propagations,
		"cracked", o.cracked, "dip_heavy", ac.dipHeavy, "single_query", ac.singleQuery)

	if o.cracked {
		sp = tr.begin(parent, "attack.verify_key")
		bad := attack.VerifyKey(ln, res.Masks, keyCheckPatterns, 2)
		tr.end(sp)
		if bad != 0 {
			return o, fmt.Errorf("recovered key differs from the oracle on %d patterns", bad)
		}
	}
	return o, nil
}

func attackItem(ac attackCase, ln *techmap.LUTNetwork) item {
	return item{
		name: ac.name(),
		run: func(context.Context) error {
			_, err := attackOne(nil, nil, ac, ln)
			return err
		},
		trace: func(_ context.Context, tr *tracer) error {
			it := tr.begin(nil, "attack.item")
			it.Cover = true
			_, err := attackOne(tr, it, ac, ln)
			tr.end(it, "item", ac.name())
			return err
		},
	}
}
