package objective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chebymc/internal/core"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
)

func benchSet(b *testing.B, seed int64) *mc.TaskSet {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	ts, err := taskgen.HCOnly(r, taskgen.Config{}, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

func benchGenomes(ts *mc.TaskSet, count int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	hcs := ts.ByCrit(mc.HC)
	out := make([][]float64, count)
	for i := range out {
		g := make([]float64, len(hcs))
		for k, t := range hcs {
			g[k] = r.Float64() * math.Min(core.NMax(t), 50)
		}
		out[i] = g
	}
	return out
}

// BenchmarkObjective measures the engine's full-recompute path — the
// direct replacement for the old core.Apply fitness closure
// (BenchmarkObjectiveApply). The ISSUE acceptance bar is ≥ 3× between
// the two.
func BenchmarkObjective(b *testing.B) {
	ts := benchSet(b, 1)
	e, err := New(ts, Options{})
	if err != nil {
		b.Fatal(err)
	}
	genomes := benchGenomes(ts, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Fitness(genomes[i%len(genomes)])
	}
}

// BenchmarkObjectiveApply is the seed fitness path: clone + core.Apply
// per evaluation.
func BenchmarkObjectiveApply(b *testing.B) {
	ts := benchSet(b, 1)
	genomes := benchGenomes(ts, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Apply(ts, genomes[i%len(genomes)])
		if err != nil {
			b.Fatal(err)
		}
		_ = a.Objective
	}
}

// BenchmarkObjectiveBatchGA runs a whole GA search through the engine —
// the end-to-end shape policy.ChebyshevGA drives.
func BenchmarkObjectiveBatchGA(b *testing.B) {
	ts := benchSet(b, 1)
	hcs := ts.ByCrit(mc.HC)
	bounds := make([]ga.Bound, len(hcs))
	for i, t := range hcs {
		bounds[i] = ga.Bound{Lo: 0, Hi: math.Min(core.NMax(t), 50)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(ts, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := ga.Defaults()
		cfg.Seed = 1
		cfg.PopSize = 40
		cfg.Generations = 60
		if _, err := ga.Run(ga.Problem{Bounds: bounds, Fitness: e.Fitness}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAGenomeLength runs ga.Run at the paper's ga.Defaults() on
// taskgen.Mixed sets of h ≈ 1, 2, 16 and 90 HC tasks (smaller per-task
// utilisations give more tasks), so a change to the scoring pass shows
// its cost at every genome length: the paper's sets hold a handful of HC
// tasks, the long genomes are where work per gene dominates.
func BenchmarkGAGenomeLength(b *testing.B) {
	for _, c := range []struct {
		h      int
		utilHi float64
	}{{1, 0.5}, {2, 0.3}, {16, 0.04}, {90, 0.007}} {
		ts := mixedSetWithHC(b, c.h, c.utilHi)
		hcs := ts.ByCrit(mc.HC)
		bounds := make([]ga.Bound, len(hcs))
		for i, t := range hcs {
			bounds[i] = ga.Bound{Lo: 0, Hi: math.Min(core.NMax(t), 50)}
		}
		b.Run(fmt.Sprintf("h=%d", c.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := New(ts, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cfg := ga.Defaults()
				cfg.Seed = 1
				if _, err := ga.Run(ga.Problem{Bounds: bounds, Fitness: e.Fitness}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mixedSetWithHC draws taskgen.Mixed sets at U_bound 0.8 with per-task
// utilisations in [utilHi/4, utilHi] until one has exactly h HC tasks.
func mixedSetWithHC(b *testing.B, h int, utilHi float64) *mc.TaskSet {
	b.Helper()
	cfg := taskgen.Config{UtilLo: utilHi / 4, UtilHi: utilHi}
	for seed := int64(1); seed <= 1000; seed++ {
		ts, err := taskgen.Mixed(rand.New(rand.NewSource(seed)), cfg, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		if ts.NumHC() == h {
			return ts
		}
	}
	b.Fatalf("no seed in [1, 1000] draws a set with %d HC tasks", h)
	return nil
}

// BenchmarkObjectiveBounds measures the full-recompute path under the
// non-default Vysochanskij–Petunin bound — the same workload as
// BenchmarkObjective, so the pair exposes what the bound-interface
// indirection costs. The bench gate tracks its allocs alongside the
// default path's.
func BenchmarkObjectiveBounds(b *testing.B) {
	ts := benchSet(b, 1)
	e, err := New(ts, Options{Bound: stats.VysochanskijPetunin{}})
	if err != nil {
		b.Fatal(err)
	}
	genomes := benchGenomes(ts, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Fitness(genomes[i%len(genomes)])
	}
}
