package core

import (
	"errors"
	"fmt"
)

// Stage identifies one step of the ALICE pipeline (Fig. 3 of the paper
// plus the implementation/redaction tail). Stage values appear in flow
// errors and observer events, so callers can attribute failures and
// progress to a specific phase.
type Stage string

const (
	StageElaborate    Stage = "elaborate"
	StageFilter       Stage = "filter"
	StageCluster      Stage = "cluster"
	StageCharacterize Stage = "characterize"
	StageSelect       Stage = "select"
	StageImplement    Stage = "implement"
	StageRedact       Stage = "redact"
	// StageVerify attributes diagnostics from the post-redaction
	// co-simulation check (VerifyRedaction).
	StageVerify Stage = "verify"
)

// Sentinel diagnostics of the flow. They are always returned wrapped in
// a *FlowError carrying the stage and design, so test with errors.Is:
//
//	if errors.Is(rep.Err, core.ErrNoCandidates) { ... }
var (
	// ErrNoCandidates: module filtering left R empty (no module both
	// affects the selected outputs and fits the eFPGA I/O budget).
	ErrNoCandidates = errors.New("no candidate redaction module satisfies the constraints")
	// ErrNoCluster: cluster identification produced no admissible
	// cluster.
	ErrNoCluster = errors.New("no admissible cluster")
	// ErrNoValidEFPGA: characterization found no fabric for any cluster.
	ErrNoValidEFPGA = errors.New("no valid eFPGA implementation")
	// ErrNoSolution: selection found no admissible set of fabrics.
	ErrNoSolution = errors.New("no admissible solution")
	// ErrClusterBudget: cluster enumeration exceeded Config.MaxClusters.
	ErrClusterBudget = errors.New("cluster identification exceeded the cluster budget")
	// ErrBelowFmaxFloor: a characterized fabric was rejected by the
	// configuration's Fmax floor (Config.FmaxFloorMHz).
	ErrBelowFmaxFloor = errors.New("fabric Fmax below the configured floor")
	// ErrBelowKeyFloor: a characterized fabric was rejected by the
	// configuration's structural-security floor
	// (Config.MinEffectiveKeyBits): too few key bits survive the
	// oracle-free structural analysis.
	ErrBelowKeyFloor = errors.New("fabric effective key length below the configured floor")
)

// FlowError is a stage-attributed flow diagnostic. It wraps one of the
// sentinel errors above (or a lower-layer error) and records which
// pipeline stage of which design produced it.
type FlowError struct {
	Stage  Stage
	Design string
	Err    error
}

// Error renders "core: <stage> <design>: <cause>".
func (e *FlowError) Error() string {
	if e.Design == "" {
		return fmt.Sprintf("core: stage %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("core: stage %s on %s: %v", e.Stage, e.Design, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *FlowError) Unwrap() error { return e.Err }
