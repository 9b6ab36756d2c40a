package mlmc

// Adaptive sample allocation for Monte Carlo validation runs. The fixed
// replication counts of the experiment sweeps are sized for their worst
// point — deep in a sweep most points need far fewer samples to pin the
// estimated probability to a useful precision. AdaptiveAlloc grows the
// replication count in width-independent steps until the confidence
// interval on the estimated proportion is tight enough, and reports how
// many of the budgeted replications it never had to run.
//
// Replication i of an adaptive estimate is always the same simulation as
// replication i of a fixed-count run (the batch engine's run-index
// contract), so switching the allocator on changes how many replications
// are spent, never what any one of them computes.

import (
	"context"
	"fmt"
	"math"

	"chebymc/internal/mc"
	"chebymc/internal/obs"
	"chebymc/internal/sim"
)

var obsAdaptiveSaved = obs.Default.Counter("mlmc_adaptive_saved_runs_total",
	"budgeted Monte Carlo replications skipped by adaptive allocation")

// adaptiveZ is the normal quantile behind the default 95% confidence
// interval.
const adaptiveZ = 1.96

// AdaptiveOptions parameterises AdaptiveAlloc.
type AdaptiveOptions struct {
	// Eps is the target half-width of the 95% Wilson confidence interval
	// on the estimated proportion. ≤ 0 disables early stopping: exactly
	// MaxRuns replications run.
	Eps float64
	// MaxRuns is the replication budget — the count a fixed-size run
	// would use. Required, ≥ 1.
	MaxRuns int
	// MinRuns is the floor before the stopping rule is consulted, so a
	// lucky early streak cannot truncate the estimate. Default 64.
	MinRuns int
	// Step is the number of replications added per growth round. It is
	// deliberately independent of the simulator's lockstep width, so the
	// spend sequence (and therefore the estimate) does not depend on how
	// replications are batched. Default 64.
	Step int
	// Workers bounds simulation parallelism (≤ 0 for 1).
	Workers int
}

// AdaptiveResult reports what an adaptive estimate spent and concluded.
type AdaptiveResult struct {
	// Runs is the number of replications actually simulated.
	Runs int
	// Saved = MaxRuns − Runs, the replications the stopping rule made
	// unnecessary.
	Saved int
	// Hits counts replications satisfying the predicate.
	Hits int
	// PHat is Hits/Runs.
	PHat float64
	// HalfWidth is the 95% Wilson half-width at Runs.
	HalfWidth float64
	// Converged reports whether the stopping rule fired before the
	// budget ran out (always false when Eps ≤ 0).
	Converged bool
}

// WilsonHalfWidth returns the half-width of the 95% Wilson score
// interval for hits successes in n trials — the stopping criterion of
// AdaptiveAlloc, exported for the experiment reports. Unlike the normal
// approximation it stays informative at p̂ = 0 or 1, exactly the regime
// the overrun-probability sweeps live in.
func WilsonHalfWidth(hits, n int) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	p := float64(hits) / float64(n)
	fn := float64(n)
	z2 := adaptiveZ * adaptiveZ
	return adaptiveZ * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn)) / (1 + z2/fn)
}

// AdaptiveAlloc estimates P[pred(replication)] for the simulation
// configuration cfg, replicating in growth rounds of opt.Step until the
// Wilson half-width drops to opt.Eps or the opt.MaxRuns budget is
// exhausted. Replications run through the batch-lockstep engine and are
// numbered from 0 in the global run-index space, so the first Runs
// replications — and the estimate built from any prefix — are identical
// to a fixed-count sim.ReplicateBatchCtx call.
func AdaptiveAlloc(ctx context.Context, ts *mc.TaskSet, cfg sim.Config, pred func(sim.Metrics) bool, opt AdaptiveOptions) (AdaptiveResult, error) {
	if opt.MaxRuns < 1 {
		return AdaptiveResult{}, fmt.Errorf("mlmc: adaptive budget %d must be ≥ 1", opt.MaxRuns)
	}
	if pred == nil {
		return AdaptiveResult{}, fmt.Errorf("mlmc: nil predicate")
	}
	minRuns := opt.MinRuns
	if minRuns <= 0 {
		minRuns = 64
	}
	if minRuns > opt.MaxRuns {
		minRuns = opt.MaxRuns
	}
	step := opt.Step
	if step <= 0 {
		step = 64
	}

	var res AdaptiveResult
	grow := func(from, to int) error {
		return sim.ReplicateInto(ctx, ts, cfg, from, to, opt.Workers, func(_ int, m sim.Metrics) {
			if pred(m) {
				res.Hits++
			}
		})
	}
	if err := grow(0, minRuns); err != nil {
		return AdaptiveResult{}, err
	}
	res.Runs = minRuns
	for {
		res.HalfWidth = WilsonHalfWidth(res.Hits, res.Runs)
		if opt.Eps > 0 && res.HalfWidth <= opt.Eps {
			res.Converged = true
			break
		}
		if res.Runs >= opt.MaxRuns {
			break
		}
		next := res.Runs + step
		if next > opt.MaxRuns {
			next = opt.MaxRuns
		}
		if err := grow(res.Runs, next); err != nil {
			return AdaptiveResult{}, err
		}
		res.Runs = next
	}
	res.PHat = float64(res.Hits) / float64(res.Runs)
	res.Saved = opt.MaxRuns - res.Runs
	obsAdaptiveSaved.Add(uint64(res.Saved))
	return res, nil
}
