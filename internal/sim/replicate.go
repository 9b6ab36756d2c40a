package sim

import (
	"context"
	"fmt"

	"chebymc/internal/mc"
	"chebymc/internal/par"
	"chebymc/internal/rng"
)

// ReplicateCtx runs the Monte Carlo replication loop: the same task set
// and configuration simulated runs times, each with a seed derived from
// cfg.Seed and the run index. Replications execute on up to workers
// goroutines — each run builds its own Simulator, and the task set is
// only read — and the returned metrics are in run order, identical for
// every worker count. Cancelling ctx stops dispatching runs and returns
// an error once in-flight simulations drain.
func ReplicateCtx(ctx context.Context, ts *mc.TaskSet, cfg Config, runs, workers int) ([]Metrics, error) {
	if runs < 1 {
		return nil, fmt.Errorf("sim: need runs ≥ 1, got %d", runs)
	}
	// Resolve the virtual-deadline factor once so every replication uses
	// the same analysis (and the EDF-VD computation is not repeated).
	probe, err := New(ts, cfg)
	if err != nil {
		return nil, err
	}
	base := probe.cfg
	return par.MapCtx(ctx, workers, runs, func(i int) (Metrics, error) {
		c := base
		c.Seed = rng.Derive(cfg.Seed, int64(i))
		s, err := New(ts, c)
		if err != nil {
			return Metrics{}, err
		}
		return s.Run(), nil
	})
}

// SummarizeReplications aggregates replicated metrics into per-field
// means — the form the experiment harnesses consume.
type ReplicationSummary struct {
	// Runs is the replication count.
	Runs int
	// MeanOverrunRate, MeanLCServiceRate, MeanUtilisation average the
	// per-run rates.
	MeanOverrunRate, MeanLCServiceRate, MeanUtilisation float64
	// MeanModeSwitches averages the LO→HI transition counts.
	MeanModeSwitches float64
	// TotalHCMisses sums HC deadline misses across all runs.
	TotalHCMisses int
}

// Summarize reduces replicated metrics to their means.
func Summarize(ms []Metrics) ReplicationSummary {
	sum := ReplicationSummary{Runs: len(ms)}
	if len(ms) == 0 {
		return sum
	}
	for _, m := range ms {
		sum.MeanOverrunRate += m.OverrunRate()
		sum.MeanLCServiceRate += m.LCServiceRate()
		sum.MeanUtilisation += m.Utilisation()
		sum.MeanModeSwitches += float64(m.ModeSwitches)
		sum.TotalHCMisses += m.HCMisses
	}
	n := float64(len(ms))
	sum.MeanOverrunRate /= n
	sum.MeanLCServiceRate /= n
	sum.MeanUtilisation /= n
	sum.MeanModeSwitches /= n
	return sum
}
