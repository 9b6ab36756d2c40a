package sim

import (
	"context"
	"errors"
	"fmt"

	"chebymc/internal/mc"
	"chebymc/internal/par"
	"chebymc/internal/rng"
)

// SystemMetrics aggregates one replication of a partitioned system: each
// core ran its own independent DES over the same horizon, so one core's
// mode switch leaves every other core in LO mode — the semantic win of
// partitioned EDF-VD the accessors below expose.
type SystemMetrics struct {
	// Cores holds per-core metrics in core order. Empty cores (a nil
	// task set in the partition) carry a zero Metrics.
	Cores []Metrics
}

// ModeSwitches sums the LO→HI transitions across cores.
func (m SystemMetrics) ModeSwitches() int {
	n := 0
	for _, c := range m.Cores {
		n += c.ModeSwitches
	}
	return n
}

// AnySwitch reports whether any core switched — the event the system
// P_sys^MS bound (Eq. 10 composed across cores) speaks about.
func (m SystemMetrics) AnySwitch() bool {
	for _, c := range m.Cores {
		if c.ModeSwitches > 0 {
			return true
		}
	}
	return false
}

// HCMisses sums HC deadline misses across cores.
func (m SystemMetrics) HCMisses() int {
	n := 0
	for _, c := range m.Cores {
		n += c.HCMisses
	}
	return n
}

// LCServiceRate reports the system LC quality of service: completed LC
// jobs over released LC jobs, summed across cores. Under partitioning a
// switch degrades only its own core's LC tasks, so this stays above the
// single-core rate for the same workload.
func (m SystemMetrics) LCServiceRate() float64 {
	released, completed := 0, 0
	for _, c := range m.Cores {
		released += c.LCReleased
		completed += c.LCCompleted
	}
	if released == 0 {
		return 0
	}
	return float64(completed) / float64(released)
}

// Utilisation reports total busy time over total core time — the mean
// per-core utilisation of the occupied cores.
func (m SystemMetrics) Utilisation() float64 {
	busy, span := 0.0, 0.0
	for _, c := range m.Cores {
		busy += c.BusyTime
		span += c.Time
	}
	if span == 0 {
		return 0
	}
	return busy / span
}

// ReplicateSystemCtx is the multicore replication mode: sets holds one
// task set per core (nil entries are idle cores), and each replication
// runs every core's DES independently under cfg. Core c of run i seeds
// from rng.Derive(cfg.Seed, i, c), and runs fan out over par.MapCtx, so
// results are in run order and bit-identical for every worker count.
// cfg.Exec and cfg.Jitter are keyed by task ID and therefore shared
// across cores; cfg.X = 0 resolves each core's virtual-deadline factor
// from its own EDF-VD analysis (LC-only cores run plain EDF at X = 1).
func ReplicateSystemCtx(ctx context.Context, sets []*mc.TaskSet, cfg Config, runs, workers int) ([]SystemMetrics, error) {
	if runs < 1 {
		return nil, fmt.Errorf("sim: need runs ≥ 1, got %d", runs)
	}
	if len(sets) == 0 {
		return nil, errors.New("sim: system replication needs at least one core")
	}
	// Resolve each occupied core's configuration once (EDF-VD factor,
	// defaults) so replications only reseed.
	bases := make([]*Config, len(sets))
	occupied := 0
	for c, set := range sets {
		if set == nil {
			continue
		}
		ccfg := cfg
		if ccfg.X == 0 && set.NumHC() == 0 {
			// An LC-only core runs plain EDF: the EDF-VD analysis yields
			// X = 0 without HC load, so pin the factor at 1 (no deadline
			// shrinking) instead of failing New's validation.
			ccfg.X = 1
		}
		probe, err := New(set, ccfg)
		if err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", c, err)
		}
		base := probe.cfg
		bases[c] = &base
		occupied++
	}
	if occupied == 0 {
		return nil, errors.New("sim: system replication needs at least one occupied core")
	}
	out, err := par.MapCtx(ctx, workers, runs, func(i int) (SystemMetrics, error) {
		sm := SystemMetrics{Cores: make([]Metrics, len(sets))}
		for c, base := range bases {
			if base == nil {
				continue
			}
			cc := *base
			cc.Seed = rng.Derive(cfg.Seed, int64(i), int64(c))
			s, err := New(sets[c], cc)
			if err != nil {
				return SystemMetrics{}, fmt.Errorf("sim: core %d: %w", c, err)
			}
			sm.Cores[c] = s.Run()
		}
		return sm, nil
	})
	if err != nil {
		return nil, err
	}
	obsSystemRuns.Add(uint64(len(out)))
	return out, nil
}

// SystemSummary aggregates replicated system metrics — the form the
// multicore experiment and mcopt report.
type SystemSummary struct {
	// Runs is the replication count.
	Runs int
	// SwitchProb is the fraction of runs where any core switched — the
	// empirical counterpart of the composed Eq. 10 bound P_sys^MS.
	SwitchProb float64
	// MeanModeSwitches averages the summed LO→HI transition counts.
	MeanModeSwitches float64
	// MeanLCServiceRate and MeanUtilisation average the per-run system
	// rates.
	MeanLCServiceRate, MeanUtilisation float64
	// TotalHCMisses sums HC deadline misses across all runs and cores.
	TotalHCMisses int
}

// SummarizeSystem reduces replicated system metrics to their means.
func SummarizeSystem(ms []SystemMetrics) SystemSummary {
	sum := SystemSummary{Runs: len(ms)}
	if len(ms) == 0 {
		return sum
	}
	for _, m := range ms {
		if m.AnySwitch() {
			sum.SwitchProb++
		}
		sum.MeanModeSwitches += float64(m.ModeSwitches())
		sum.MeanLCServiceRate += m.LCServiceRate()
		sum.MeanUtilisation += m.Utilisation()
		sum.TotalHCMisses += m.HCMisses()
	}
	n := float64(len(ms))
	sum.SwitchProb /= n
	sum.MeanModeSwitches /= n
	sum.MeanLCServiceRate /= n
	sum.MeanUtilisation /= n
	return sum
}
