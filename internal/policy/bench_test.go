package policy

import (
	"math"
	"math/rand"
	"testing"

	"chebymc/internal/core"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/taskgen"
)

// Optimizer ablation (DESIGN.md §5): the paper's GA against uniform
// grid search and pure random search on the actual
// Eq. 13 objective. Each benchmark reports the achieved objective through
// the `objective` metric alongside the runtime cost.

func eq13Problem(b *testing.B, seed int64) (ga.Problem, *mc.TaskSet) {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	ts, err := taskgen.HCOnly(r, taskgen.Config{}, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	hcs := ts.ByCrit(mc.HC)
	bounds := make([]ga.Bound, len(hcs))
	for i, task := range hcs {
		hi := math.Min(core.NMax(task), 50)
		bounds[i] = ga.Bound{Lo: 0, Hi: hi}
	}
	fitness := func(g []float64) float64 {
		a, err := core.Apply(ts, g)
		if err != nil {
			return math.Inf(-1)
		}
		return a.Objective
	}
	return ga.Problem{Bounds: bounds, Fitness: fitness}, ts
}

func BenchmarkOptimizerGA(b *testing.B) {
	total := 0.0
	for i := 0; i < b.N; i++ {
		p, _ := eq13Problem(b, int64(i+1))
		cfg := ga.Defaults()
		cfg.Seed = int64(i + 1)
		cfg.PopSize = 40
		cfg.Generations = 60
		res, err := ga.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.BestFitness
	}
	b.ReportMetric(total/float64(b.N), "objective")
}

func BenchmarkOptimizerUniformGrid(b *testing.B) {
	// The Fig. 2-style fallback: one shared n swept over a grid.
	total := 0.0
	for i := 0; i < b.N; i++ {
		_, ts := eq13Problem(b, int64(i+1))
		best := math.Inf(-1)
		for n := 0.0; n <= 50; n++ {
			ns, err := core.ClampNS(ts, uniformVec(ts.NumHC(), n))
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.Apply(ts, ns)
			if err != nil {
				b.Fatal(err)
			}
			if a.Objective > best {
				best = a.Objective
			}
		}
		total += best
	}
	b.ReportMetric(total/float64(b.N), "objective")
}

func BenchmarkOptimizerRandomSearch(b *testing.B) {
	total := 0.0
	for i := 0; i < b.N; i++ {
		p, _ := eq13Problem(b, int64(i+1))
		r := rand.New(rand.NewSource(int64(i + 1)))
		best := math.Inf(-1)
		const evals = 2400 // match the GA's budget (40 × 60)
		g := make([]float64, len(p.Bounds))
		for e := 0; e < evals; e++ {
			for k, bd := range p.Bounds {
				g[k] = bd.Lo + r.Float64()*(bd.Hi-bd.Lo)
			}
			if v := p.Fitness(g); v > best {
				best = v
			}
		}
		total += best
	}
	b.ReportMetric(total/float64(b.N), "objective")
}

func uniformVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
