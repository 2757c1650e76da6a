package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"alice/internal/rtl"
)

// Solution is one admissible set of non-overlapping eFPGA
// implementations (an element of S in Algorithm 3).
type Solution struct {
	Fabrics []*FabricCandidate
	Score   float64
}

// RedactedInstances lists every instance the solution redacts.
func (s *Solution) RedactedInstances() []*rtl.InstanceNode {
	var out []*rtl.InstanceNode
	for _, f := range s.Fabrics {
		out = append(out, f.Cluster.Instances...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FabricSizes renders the solution's fabric names ("4x4, 4x4"; fabrics
// from a non-default family carry the family suffix, e.g. "3x3-K5N8").
func (s *Solution) FabricSizes() string {
	var names []string
	for _, f := range s.Fabrics {
		names = append(names, f.Fabric.Arch.FullName())
	}
	return strings.Join(names, ", ")
}

// SelectionResult is the output of the eFPGA-selection phase.
type SelectionResult struct {
	Candidates []FabricCandidate
	// ValidCount is the number of admissible eFPGA implementations
	// ("# valid eFPGAs" in Table 2).
	ValidCount int
	// SolutionCount is |S|: every non-empty set of pairwise-disjoint
	// valid fabrics within the eFPGA budget.
	SolutionCount int
	// Best is the chosen solution (nil when none exists).
	Best *Solution
	// MaxIOUtil / MaxCLBUtil are the normalization terms of Eq. 1;
	// MaxFmaxMHz normalizes the delay term and MaxEffectiveKeyBits the
	// security term the same way.
	MaxIOUtil           float64
	MaxCLBUtil          float64
	MaxFmaxMHz          float64
	MaxEffectiveKeyBits int
	// Direction records the Eq.-1 ranking used, so per-family reporting
	// compares candidates with the same metric selection did.
	Direction ScoreDirection
}

// SelectEFPGAs implements Algorithm 3 after characterization: score
// every valid fabric with Eq. 1, enumerate all non-overlapping
// combinations bounded by the eFPGA budget (branch & bound over an
// index-ordered search tree), and rank the solutions. The enumeration
// checks ctx every few thousand visited nodes, so very large solution
// spaces remain cancellable.
func SelectEFPGAs(ctx context.Context, cands []FabricCandidate, cfg *Config) (*SelectionResult, error) {
	// Work on a copy of the candidate slice: selection is documented to
	// be re-runnable over one characterization under many
	// configurations, so per-config verdicts (the Fmax floor, scores)
	// must never leak into the caller's slice. Stale floor rejections
	// from a previous Select over the same copy are re-evaluated here.
	cands = append([]FabricCandidate(nil), cands...)
	res := &SelectionResult{Candidates: cands, Direction: cfg.Direction}
	floorRejected := 0
	keyRejected := 0
	for i := range cands {
		c := &cands[i]
		if c.Err != nil && (errors.Is(c.Err, ErrBelowFmaxFloor) || errors.Is(c.Err, ErrBelowKeyFloor)) {
			c.Err = nil // this config's floors decide below
		}
		if !c.Valid() {
			continue
		}
		if cfg.FmaxFloorMHz > 0 {
			fm := 0.0
			if c.Fabric.Timing != nil {
				fm = c.Fabric.Timing.FmaxMHz
			}
			if fm < cfg.FmaxFloorMHz {
				c.Err = fmt.Errorf("%.1f MHz < floor %.1f MHz: %w", fm, cfg.FmaxFloorMHz, ErrBelowFmaxFloor)
				floorRejected++
				continue
			}
		}
		if cfg.MinEffectiveKeyBits > 0 {
			if c.Structural == nil {
				c.Err = fmt.Errorf("structural analysis unavailable: %w", ErrBelowKeyFloor)
				keyRejected++
			} else if eff := c.Structural.EffectiveKeyBits; eff < cfg.MinEffectiveKeyBits {
				c.Err = fmt.Errorf("%d effective key bits (of %d) < floor %d: %w",
					eff, c.Structural.KeyBits, cfg.MinEffectiveKeyBits, ErrBelowKeyFloor)
				keyRejected++
			}
		}
	}
	var valid []*FabricCandidate
	for i := range cands {
		if cands[i].Valid() {
			valid = append(valid, &cands[i])
		}
	}
	res.ValidCount = len(valid)
	if len(valid) == 0 {
		if keyRejected > 0 {
			return res, fmt.Errorf("%w (%d fabrics rejected: %w of %d bits)",
				ErrNoValidEFPGA, keyRejected, ErrBelowKeyFloor, cfg.MinEffectiveKeyBits)
		}
		if floorRejected > 0 {
			return res, fmt.Errorf("%w (%d fabrics rejected: %w at %.1f MHz)",
				ErrNoValidEFPGA, floorRejected, ErrBelowFmaxFloor, cfg.FmaxFloorMHz)
		}
		return res, ErrNoValidEFPGA
	}

	// Eq. 1 normalization terms.
	for _, f := range valid {
		if f.Fabric.IOUtil > res.MaxIOUtil {
			res.MaxIOUtil = f.Fabric.IOUtil
		}
		if f.Fabric.CLBUtil > res.MaxCLBUtil {
			res.MaxCLBUtil = f.Fabric.CLBUtil
		}
		if t := f.Fabric.Timing; t != nil && t.FmaxMHz > res.MaxFmaxMHz {
			res.MaxFmaxMHz = t.FmaxMHz
		}
		if s := f.Structural; s != nil && s.EffectiveKeyBits > res.MaxEffectiveKeyBits {
			res.MaxEffectiveKeyBits = s.EffectiveKeyBits
		}
	}
	for _, f := range valid {
		f.Slack = eq1(f, res.MaxIOUtil, res.MaxCLBUtil, res.MaxFmaxMHz, res.MaxEffectiveKeyBits, cfg)
		f.Score = utilReward(f, res.MaxIOUtil, res.MaxCLBUtil, res.MaxFmaxMHz, res.MaxEffectiveKeyBits, cfg)
	}

	// Pairwise conflicts: shared instances or hierarchy containment.
	n := len(valid)
	conflict := make([][]bool, n)
	for i := range conflict {
		conflict[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if clustersOverlap(&valid[i].Cluster, &valid[j].Cluster) {
				conflict[i][j] = true
				conflict[j][i] = true
			}
		}
	}

	// Enumerate all admissible solutions; track the best. The default
	// ranking maximizes the summed utilization reward (high I/O and CLB
	// utilization on every fabric, more fabrics when allowed), which is
	// the reading of Eq. 1 consistent with the paper's selections; the
	// literal alternative minimizes the summed Eq. 1 slack (ablation).
	perFabric := func(j int) float64 {
		if cfg.Direction == ScoreMinimize {
			return valid[j].Slack
		}
		return valid[j].Score
	}
	better := func(scoreA float64, sizeA int, keyA string, scoreB float64, sizeB int, keyB string) bool {
		if scoreA != scoreB {
			if cfg.Direction == ScoreMinimize {
				return scoreA < scoreB
			}
			return scoreA > scoreB
		}
		if sizeA != sizeB {
			return sizeA > sizeB // redact more instances on ties
		}
		return keyA < keyB
	}
	var bestSet []int
	var bestScore float64
	var bestSize int
	var bestKey string
	count := 0
	visited := 0
	var ctxErr error
	chosen := make([]int, 0, cfg.MaxEFPGAs)
	var rec func(start int, score float64, size int)
	rec = func(start int, score float64, size int) {
		if ctxErr != nil {
			return
		}
		if visited++; visited&0x0fff == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return
			}
		}
		for j := start; j < n; j++ {
			ok := true
			for _, c := range chosen {
				if conflict[c][j] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, j)
			count++
			sc := score + perFabric(j)
			sz := size + len(valid[j].Cluster.Instances)
			key := fmt.Sprint(chosen)
			if bestSet == nil || better(sc, sz, key, bestScore, bestSize, bestKey) {
				bestSet = append([]int(nil), chosen...)
				bestScore, bestSize, bestKey = sc, sz, key
			}
			if len(chosen) < cfg.MaxEFPGAs {
				rec(j+1, sc, sz)
			}
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec(0, 0, 0)
	if ctxErr != nil {
		return res, ctxErr
	}
	res.SolutionCount = count
	if bestSet == nil {
		return res, ErrNoSolution
	}
	best := &Solution{Score: bestScore}
	for _, j := range bestSet {
		best.Fabrics = append(best.Fabrics, valid[j])
	}
	res.Best = best
	return res, nil
}

// eq1 computes the paper's Eq. 1 for one fabric, exactly as printed:
//
//	T_f = alpha * (MaxIOUtil - IOUtil_f) / MaxIOUtil
//	    + beta  * (MaxCLBUtil - CLBUtil_f) / MaxCLBUtil
//
// extended by the delay-overhead term of the timing-driven flow,
// gamma * (MaxFmax - Fmax_f) / MaxFmax (0 when DelayWeight is 0), and
// by the security-slack term KeyWeight * (MaxEff - Eff_f) / MaxEff over
// the structural effective key length (0 when KeyWeight is 0).
// This is a slack: 0 for the best fabric on every axis.
func eq1(f *FabricCandidate, maxIO, maxCLB, maxFmax float64, maxEff int, cfg *Config) float64 {
	t := 0.0
	if maxIO > 0 {
		t += cfg.Alpha * (maxIO - f.Fabric.IOUtil) / maxIO
	}
	if maxCLB > 0 {
		t += cfg.Beta * (maxCLB - f.Fabric.CLBUtil) / maxCLB
	}
	if cfg.DelayWeight > 0 && maxFmax > 0 {
		t += cfg.DelayWeight * (maxFmax - fmaxOf(f)) / maxFmax
	}
	if cfg.KeyWeight > 0 && maxEff > 0 {
		t += cfg.KeyWeight * float64(maxEff-effKeyOf(f)) / float64(maxEff)
	}
	return t
}

// utilReward is the complementary reading of Eq. 1 used by the default
// ranking: alpha*IOUtil/MaxIOUtil + beta*CLBUtil/MaxCLBUtil, so fabrics
// with high I/O and CLB utilization (harder to attack per Sec. 6) score
// higher, and solutions with more well-utilized fabrics win. The
// timing-driven flow adds gamma*Fmax/MaxFmax, rewarding faster fabrics
// the same normalized way, and KeyWeight adds Eff/MaxEff, rewarding
// fabrics whose configuration survives structural analysis.
func utilReward(f *FabricCandidate, maxIO, maxCLB, maxFmax float64, maxEff int, cfg *Config) float64 {
	t := 0.0
	if maxIO > 0 {
		t += cfg.Alpha * f.Fabric.IOUtil / maxIO
	}
	if maxCLB > 0 {
		t += cfg.Beta * f.Fabric.CLBUtil / maxCLB
	}
	if cfg.DelayWeight > 0 && maxFmax > 0 {
		t += cfg.DelayWeight * fmaxOf(f) / maxFmax
	}
	if cfg.KeyWeight > 0 && maxEff > 0 {
		t += cfg.KeyWeight * float64(effKeyOf(f)) / float64(maxEff)
	}
	return t
}

// fmaxOf returns a candidate's analyzed Fmax (0 when timing is absent).
func fmaxOf(f *FabricCandidate) float64 {
	if t := f.Fabric.Timing; t != nil {
		return t.FmaxMHz
	}
	return 0
}

// effKeyOf returns a candidate's structural effective key length
// (0 when the analysis is absent).
func effKeyOf(f *FabricCandidate) int {
	if s := f.Structural; s != nil {
		return s.EffectiveKeyBits
	}
	return 0
}

// clustersOverlap reports whether two clusters share an instance or one
// contains an instance nested inside an instance of the other.
func clustersOverlap(a, b *Cluster) bool {
	for _, x := range a.Instances {
		for _, y := range b.Instances {
			if x.Path == y.Path ||
				strings.HasPrefix(y.Path, x.Path+".") ||
				strings.HasPrefix(x.Path, y.Path+".") {
				return true
			}
		}
	}
	return false
}
