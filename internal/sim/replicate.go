package sim

import (
	"context"
	"fmt"
	"sync"

	"chebymc/internal/mc"
	"chebymc/internal/par"
	"chebymc/internal/rng"
)

// ReplicateCtx runs the Monte Carlo replication loop: the same task set
// and configuration simulated runs times, each with a seed derived from
// cfg.Seed and the run index. Replications execute on up to workers
// goroutines, each reusing one simulator across the runs it executes
// (the task set is only read), and the returned metrics are in run
// order, identical for every worker count. Cancelling ctx stops
// dispatching runs and returns an error once in-flight simulations
// drain.
func ReplicateCtx(ctx context.Context, ts *mc.TaskSet, cfg Config, runs, workers int) ([]Metrics, error) {
	if runs < 1 {
		return nil, fmt.Errorf("sim: need runs ≥ 1, got %d", runs)
	}
	r, err := newReplicator(ts, cfg)
	if err != nil {
		return nil, err
	}
	return par.MapCtx(ctx, workers, runs, r.run)
}

// ReplicateBatchCtx is ReplicateCtx; batch is ignored. It is kept for
// perfbench/paper.go, its only caller, which a change outside the
// benchmark may not edit.
func ReplicateBatchCtx(ctx context.Context, ts *mc.TaskSet, cfg Config, runs, workers, batch int) ([]Metrics, error) {
	return ReplicateCtx(ctx, ts, cfg, runs, workers)
}

// foldWave is how many replications per worker ReplicateInto computes
// between folds: the most metrics it retains is workers × foldWave.
const foldWave = 64

// ReplicateInto folds the metrics of replications [from, to) — numbered
// in the same global run index space as ReplicateCtx, so replication i
// is identical regardless of the range it is computed in — through fold
// in run order, without retaining more than one wave of results. It is
// the aggregation form: sweeps that only reduce (Summarize, CI
// accumulation) never materialise a runs-sized []Metrics, and a prefix
// [0, n) extends to [0, m) by folding [n, m) — AdaptiveAlloc's growth
// rounds.
func ReplicateInto(ctx context.Context, ts *mc.TaskSet, cfg Config, from, to, workers int, fold func(run int, m Metrics)) error {
	if from < 0 || to < from {
		return fmt.Errorf("sim: bad replication range [%d, %d)", from, to)
	}
	if to == from {
		return nil
	}
	r, err := newReplicator(ts, cfg)
	if err != nil {
		return err
	}
	return r.into(ctx, from, to, workers, fold)
}

// into is ReplicateInto over the replicator's resolved configuration, for
// callers that fold several ranges of one configuration.
func (r *replicator) into(ctx context.Context, from, to, workers int, fold func(run int, m Metrics)) error {
	wave := max(workers, 1) * foldWave
	for lo := from; lo < to; lo += wave {
		res, err := par.MapCtx(ctx, workers, min(wave, to-lo), func(k int) (Metrics, error) {
			return r.run(lo + k)
		})
		if err != nil {
			return err
		}
		for k, m := range res {
			fold(lo+k, m)
		}
	}
	return nil
}

// replicator runs the replications of one configuration, resolved once
// (validation, EDF-VD X, release table) and shared by every worker
// simulator.
type replicator struct {
	seed int64
	sims *simStack[*Simulator]
}

func newReplicator(ts *mc.TaskSet, cfg Config) (*replicator, error) {
	probe, err := New(ts, cfg)
	if err != nil {
		return nil, err
	}
	probe.table = probe.newReleaseTable()
	return &replicator{seed: cfg.Seed, sims: newSimStack(probe, probe.clone)}, nil
}

// run computes replication i, seeded rng.Derive(cfg.Seed, i).
func (r *replicator) run(i int) (Metrics, error) {
	s := r.sims.get()
	m := s.runSeed(rng.Derive(r.seed, int64(i)))
	r.sims.put(s)
	return m, nil
}

// simStack hands each in-flight replication a simulator (or, for system
// replication, one per core) of its own and takes it back afterwards, so
// a replication call allocates at most one per worker and every later
// run reuses its job slots, heaps and RNG.
type simStack[T any] struct {
	mu   sync.Mutex
	free []T
	mk   func() T
}

// newSimStack returns a stack holding first that makes more with mk.
func newSimStack[T any](first T, mk func() T) *simStack[T] {
	return &simStack[T]{free: []T{first}, mk: mk}
}

func (p *simStack[T]) get() T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return p.mk()
}

func (p *simStack[T]) put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
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
