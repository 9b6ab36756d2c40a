// Benchmarks regenerating the paper's evaluation artefacts, one per table
// and figure. Each iteration runs the experiment at a reduced but
// representative scale so `go test -bench=.` finishes in minutes; the
// cmd/mcexp binary runs the full paper-sized versions.
package chebymc_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"chebymc/internal/edfvd"
	"chebymc/internal/experiment"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
	"chebymc/internal/sim"
	"chebymc/internal/taskgen"
)

// benchTraceCfg keeps per-iteration trace collection modest: 2000 samples
// per kernel (100 for qsort-10000).
func benchTraceCfg(seed int64) experiment.TraceConfig {
	return experiment.TraceConfig{
		DefaultSamples: 2000,
		Samples:        map[string]int{"qsort-10000": 100},
		Seed:           seed,
	}
}

// BenchmarkTable1 regenerates Table I: ACET vs WCET^pes and overrun
// percentages for naive WCET^opt choices across the seven benchmarks.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable1(benchTraceCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 7 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2 regenerates Table II: analysis bound vs measured overrun
// rate for n = 0..4.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable2(benchTraceCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.BoundHolds() {
			b.Fatal("Theorem 1 bound violated")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: the uniform-n sweep on the example
// task set with U_HC^HI = 0.85.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(experiment.Fig2Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: P_sys^MS, max U_LC^LO and the
// objective over the U_HC^HI × n grid (100 sets per point per iteration;
// the paper uses 1000).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(experiment.Fig3Config{Sets: 100, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4 (and Fig. 5's inputs): the policy
// comparison across utilisations, 30 sets per point per iteration.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig45(experiment.Fig45Config{
			Sets: 30,
			GA:   ga.Config{PopSize: 30, Generations: 40},
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("fig 4 empty")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: the Eq. 13 objective per policy; the
// proposed scheme must dominate (the result's Verify check).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig45(experiment.Fig45Config{
			Sets: 30,
			GA:   ga.Config{PopSize: 30, Generations: 40},
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: acceptance ratios for Baruah's and
// Liu's approaches with and without the proposed scheme, 200 sets per
// bound per iteration.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(experiment.Fig6Config{Sets: 200, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline regenerates the abstract's two numbers (utilisation
// improvement, worst-case P_sys^MS) from the Fig. 4/5 sweep.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig45(experiment.Fig45Config{
			Sets: 30,
			GA:   ga.Config{PopSize: 30, Generations: 40},
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		h := res.Headline()
		if h.UtilImprovementPct <= 0 {
			b.Fatal("no headline improvement")
		}
	}
}

// benchSimValCfg is the reduced-scale DES-validation sweep shared by the
// fixed/adaptive pair below; only the stopping rule differs.
func benchSimValCfg(seed int64) experiment.SimValConfig {
	return experiment.SimValConfig{
		Ns:   []float64{2, 4},
		Sets: 5, Runs: 2000, Seed: seed,
	}
}

// BenchmarkSimVal runs the DES validation of Eq. 10 with the fixed
// replication budget spent in full at every set.
func BenchmarkSimVal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSimVal(benchSimValCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.PredictionsHold() {
			b.Fatal("Eq. 10 claim violated in simulation")
		}
	}
}

// BenchmarkSimValAdaptive runs the same sweep with adaptive sampling:
// each set stops replicating once the Wilson 95% half-width reaches
// 0.02, so the speed-up over BenchmarkSimVal is exactly the budget the
// allocator never spends.
func BenchmarkSimValAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSimValCfg(int64(i + 1))
		cfg.CIEps = 0.02
		res, err := experiment.RunSimVal(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PredictionsHold() {
			b.Fatal("Eq. 10 claim violated in simulation")
		}
		if res.SavedFraction() <= 0 {
			b.Fatal("adaptive allocator saved nothing")
		}
	}
}

// BenchmarkAblationBounds regenerates the bounds ablation (A1): the
// distribution-free Cantelli budget vs fitted pWCET quantiles.
func BenchmarkAblationBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationBounds(benchTraceCfg(int64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ChebyshevNeverViolates() {
			b.Fatal("Chebyshev budget violated its claim")
		}
	}
}

// BenchmarkConvergence regenerates the sample-size study.
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunConvergence(experiment.ConvergenceConfig{
			Trace:  experiment.TraceConfig{Seed: int64(i + 1)},
			Counts: []int{50, 200, 1000},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty convergence result")
		}
	}
}

// BenchmarkExtension regenerates the multi-level (future-work) evaluation
// at reduced scale.
func BenchmarkExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunExtension(experiment.ExtensionConfig{
			UBounds: []float64{0.5, 0.9},
			Sets:    30,
			GA:      ga.Config{PopSize: 20, Generations: 25},
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// paperSet is one admitted task set of the sweep-paper-like DES pass.
type paperSet struct {
	ts  *mc.TaskSet
	cfg sim.Config
}

// paperSets are built once per process: 80 taskgen.Mixed sets at each of
// U = 0.7, 0.9, 1.1, 1.3, assigned by the Fig. 4/5 GA (population 40, 60
// generations); the EDF-VD-admitted ones are kept with truncated-normal
// HC execution times over a 20000 horizon.
var paperSets = sync.OnceValues(func() ([]paperSet, error) {
	gaPolicy := policy.ChebyshevGA{Config: ga.Config{PopSize: 40, Generations: 60}}
	var out []paperSet
	for ui, u := range []float64{0.7, 0.9, 1.1, 1.3} {
		for s := 0; s < 80; s++ {
			r := rng.New(1, 102, int64(ui), int64(s))
			ts, err := taskgen.Mixed(r, taskgen.Config{}, u)
			if err != nil {
				return nil, err
			}
			gaRoot, simSeed := r.Int63(), r.Int63()
			a, err := gaPolicy.AssignCtx(context.Background(), ts, rand.New(rand.NewSource(gaRoot)))
			if err != nil {
				return nil, err
			}
			if !edfvd.Schedulable(a.TaskSet).Schedulable {
				continue
			}
			exec, err := sim.TruncNormalExec(a.TaskSet)
			if err != nil {
				return nil, err
			}
			cfg := sim.Defaults()
			cfg.Horizon = 20000
			cfg.Exec = exec
			cfg.Seed = simSeed
			if a.TaskSet.NumHC() == 0 {
				cfg.X = 1
			}
			out = append(out, paperSet{a.TaskSet, cfg})
		}
	}
	return out, nil
})

// BenchmarkReplicatePaperSets is the DES layer of a sweep-paper pass: 16
// single-worker replications of every admitted set. The sets are built
// before the timer starts.
func BenchmarkReplicatePaperSets(b *testing.B) {
	sets, err := paperSets()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ps := range sets {
			ms, err := sim.ReplicateCtx(ctx, ps.ts, ps.cfg, 16, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range ms {
				if m.HCMisses != 0 {
					b.Fatal("HC deadline miss on an admitted set")
				}
			}
		}
	}
	b.ReportMetric(float64(len(sets)), "sets")
}
