package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"alice/internal/openfpga"
)

// Report is the outcome of one full ALICE run: the Table-2 row of the
// paper plus the artifacts behind it.
type Report struct {
	Design    string
	Instances int // redactable instances in the design

	// Phase metrics (Table 2 columns). SelectTime covers phase 3 of the
	// paper's accounting — characterization plus selection — so Row()
	// matches the legacy output; CharacterizeTime is the
	// characterization share of it.
	FilterTime       time.Duration
	R                int // candidate redaction modules
	ClusterTime      time.Duration
	C                int // candidate module clusters
	CharacterizeTime time.Duration
	SelectTime       time.Duration
	ValidEFPGAs      int
	S                int // admissible solutions
	FabricSizes      string
	Redacted         int // redacted module instances

	// Artifacts.
	Filter    *FilterResult
	Clusters  []Cluster
	Selection *SelectionResult
	Solution  *Solution
	Redaction *Redaction

	// Err is the flow's terminal diagnostic when no solution exists
	// (e.g. IIR under cfg1 in the paper). It is a *FlowError wrapping
	// one of the stage sentinels (ErrNoCandidates, ErrNoCluster,
	// ErrNoValidEFPGA, ErrNoSolution, ...), so callers can dispatch with
	// errors.Is / errors.As.
	Err error
}

// Row renders the report as a Table-2-style line.
func (r *Report) Row() string {
	if r.Err != nil && r.Solution == nil {
		return fmt.Sprintf("%-10s %4d | %8.2fs %3d | %8.2fs %4s | %8s %7s %6s | %-12s %s",
			r.Design, r.Instances, r.FilterTime.Seconds(), r.R,
			r.ClusterTime.Seconds(), dash(r.R > 0, r.C),
			"-", "-", "-", "-", "(n.a.)")
	}
	return fmt.Sprintf("%-10s %4d | %8.2fs %3d | %8.2fs %4d | %8.2fs %7d %6d | %-12s %d",
		r.Design, r.Instances, r.FilterTime.Seconds(), r.R,
		r.ClusterTime.Seconds(), r.C,
		r.SelectTime.Seconds(), r.ValidEFPGAs, r.S,
		r.FabricSizes, r.Redacted)
}

func dash(ok bool, v int) string {
	if ok {
		return fmt.Sprint(v)
	}
	return "-"
}

// EventKind distinguishes observer notifications.
type EventKind int

const (
	// EventStageStart fires when a pipeline stage begins.
	EventStageStart EventKind = iota
	// EventStageEnd fires when a stage completes (Duration and Count
	// are set; Err carries the stage diagnostic, if any).
	EventStageEnd
	// EventProgress fires during characterization after each cluster
	// (Done/Total are set).
	EventProgress
)

// Event is one observer notification from a pipeline run.
type Event struct {
	Kind     EventKind
	Stage    Stage
	Design   string
	Duration time.Duration // stage end
	Count    int           // stage result cardinality (|R|, |C|, valid, ...)
	Done     int           // progress
	Total    int           // progress
	Err      error         // stage diagnostic
}

// Observer receives pipeline events. The Engine serializes calls, so
// an observer needs no locking of its own even under parallel
// characterization or RunBatch.
type Observer func(Event)

// ImplementSolution upgrades every fast-mode fabric of a solution to a
// fully placed, routed, and programmed one, growing fabrics if routing
// requires. The fabrics are independent, so up to parallelism of them
// are implemented at once; values below 1 mean sequential. It returns
// only after every implementation has returned, and applies results
// in fabric order as a sequential run would: the first failing fabric
// is reported, and no later fabric is upgraded past it.
//
// A configured Fmax floor is re-checked against the exact routed
// timing: selection admitted the fabric on an estimate, and an
// implementation that misses the floor anyway is a typed failure, not
// a silent constraint violation.
func ImplementSolution(ctx context.Context, sol *Solution, cfg *Config, parallelism int) error {
	impl := make([]*openfpga.Fabric, len(sol.Fabrics))
	errs := make([]error, len(sol.Fabrics))
	ParallelFor(len(sol.Fabrics), parallelism, func(i int) {
		if f := sol.Fabrics[i].Fabric; f.Bits == nil {
			impl[i], errs[i] = implementFabric(ctx, f, cfg)
		}
	})
	for i, fc := range sol.Fabrics {
		if err := errs[i]; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("implementing winning fabric: %w", err)
		}
		if impl[i] != nil {
			fc.Fabric = impl[i]
		}
		if cfg.FmaxFloorMHz > 0 {
			if t := fc.Fabric.Timing; t != nil && !t.Estimated && t.FmaxMHz < cfg.FmaxFloorMHz {
				return fmt.Errorf("implemented fabric %s: routed %.1f MHz < floor %.1f MHz: %w",
					fc.Fabric.Arch.FullName(), t.FmaxMHz, cfg.FmaxFloorMHz, ErrBelowFmaxFloor)
			}
		}
	}
	return nil
}

// implementFabric places, routes and programs a fast-mode fabric,
// growing it if routing requires.
func implementFabric(ctx context.Context, f *openfpga.Fabric, cfg *Config) (*openfpga.Fabric, error) {
	return openfpga.Recharacterize(ctx, f, openfpga.Options{
		MinW:         f.Arch.W,
		MaxW:         cfg.MaxFabric,
		FullPnR:      true,
		Seed:         cfg.Seed,
		RouteIters:   32,
		UnifyClocks:  true,
		TimingDriven: cfg.TimingDriven,
	})
}

// ParallelFor calls f(i) for every i in [0, n), handing the indices out
// in ascending order to up to workers goroutines, and returns once
// every call has returned. With one worker it runs in the caller's
// goroutine. It is the flow's one worker pool: characterization,
// implementation and batch runs all fan out through it. The caller
// feeds the indices through an unbuffered channel: workers claiming
// them from an atomic counter instead measured a higher and more
// erratic peak RSS on the benchmark's flow_corpus.
func ParallelFor(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Summary renders a multi-line human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: %d redactable instances\n", r.Design, r.Instances)
	fmt.Fprintf(&b, "  filtering: %v, |R| = %d\n", r.FilterTime, r.R)
	if r.Filter != nil {
		for _, c := range r.Filter.Candidates {
			fmt.Fprintf(&b, "    candidate %-16s score=%d pins=%d instances=%d\n",
				c.Module.Name, c.Score, c.Pins, len(c.Instances))
		}
	}
	fmt.Fprintf(&b, "  clustering: %v, |C| = %d\n", r.ClusterTime, r.C)
	fmt.Fprintf(&b, "  selection: %v, valid eFPGAs = %d, |S| = %d\n", r.SelectTime, r.ValidEFPGAs, r.S)
	if r.Solution != nil {
		fmt.Fprintf(&b, "  solution: fabrics [%s], score %.4f, %d redacted instances\n",
			r.FabricSizes, r.Solution.Score, r.Redacted)
		for _, f := range r.Solution.Fabrics {
			fmt.Fprintf(&b, "    %s: %s pins=%d IOUtil=%.2f CLBUtil=%.2f key=%d bits",
				f.Fabric.Arch.FullName(), f.Cluster.String(), f.Cluster.Pins,
				f.Fabric.IOUtil, f.Fabric.CLBUtil, f.Fabric.ConfigBits())
			if t := f.Fabric.Timing; t != nil {
				est := ""
				if t.Estimated {
					est = " (est)"
				}
				fmt.Fprintf(&b, " critpath=%.2fns fmax=%.0fMHz%s", t.CritPathNs, t.FmaxMHz, est)
			}
			if s := f.Structural; s != nil {
				fmt.Fprintf(&b, " effkey=%d (leaked=%d dead=%d)", s.EffectiveKeyBits, s.LeakedBits, s.DeadBits)
			}
			b.WriteByte('\n')
		}
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "  flow stopped: %v\n", r.Err)
	}
	return b.String()
}
