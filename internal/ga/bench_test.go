package ga

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Operator-setting ablation (DESIGN.md §5): the paper's parameters
// (two-point crossover 0.8, single-point mutation 0.2, tournament 5)
// against alternatives on a rugged multimodal surface. Run with
// `go test -bench=. ./internal/ga/`; the benchmark reports achieved
// fitness per configuration through the `fitness` metric.

// rastrigin is a classic rugged test surface (maximum 0 at the origin).
func rastrigin(g []float64) float64 {
	s := 10.0 * float64(len(g))
	for _, x := range g {
		s += x*x - 10*math.Cos(2*math.Pi*x)
	}
	return -s
}

func rastriginProblem(dim int) Problem {
	bounds := make([]Bound, dim)
	for i := range bounds {
		bounds[i] = Bound{Lo: -5.12, Hi: 5.12}
	}
	return Problem{Bounds: bounds, Fitness: rastrigin}
}

func benchConfig(b *testing.B, cfg Config) {
	b.Helper()
	p := rastriginProblem(8)
	total := 0.0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.BestFitness
	}
	b.ReportMetric(total/float64(b.N), "fitness")
}

// BenchmarkPaperOperators uses the paper's settings.
func BenchmarkPaperOperators(b *testing.B) {
	benchConfig(b, Defaults())
}

// BenchmarkLowMutation halves exploration.
func BenchmarkLowMutation(b *testing.B) {
	benchConfig(b, cfgWith(func(c *Config) { c.MutProb = 0.05 }))
}

// BenchmarkHighMutation approaches random search.
func BenchmarkHighMutation(b *testing.B) {
	benchConfig(b, cfgWith(func(c *Config) { c.MutProb = 0.8 }))
}

// BenchmarkNoCrossover disables recombination.
func BenchmarkNoCrossover(b *testing.B) {
	benchConfig(b, cfgWith(func(c *Config) { c.CrossProb = 0.001 }))
}

// BenchmarkWeakSelection uses binary tournaments.
func BenchmarkWeakSelection(b *testing.B) {
	benchConfig(b, cfgWith(func(c *Config) { c.TournamentK = 2 }))
}

// BenchmarkGreedySelection uses size-20 tournaments (heavy selection
// pressure, premature convergence risk).
func BenchmarkGreedySelection(b *testing.B) {
	benchConfig(b, cfgWith(func(c *Config) { c.TournamentK = 20 }))
}

// BenchmarkGAParallel compares serial vs parallel population evaluation
// on a deliberately expensive fitness (the cost profile of the paper's
// Eq. 13 objective over a large task set). Results are identical per
// worker count; only wall-clock differs.
func BenchmarkGAParallel(b *testing.B) {
	expensive := func(g []float64) float64 {
		f := rastrigin(g)
		// Simulate the per-genome analysis cost of a real fitness.
		s := 0.0
		for i := 0; i < 20000; i++ {
			s += math.Sqrt(float64(i%97) + f*f)
		}
		return f - s*1e-18
	}
	p := rastriginProblem(8)
	p.Fitness = expensive
	// One entry per distinct count: at NumCPU = 1, workers=1 would run twice.
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cfgWith(func(c *Config) { c.PopSize = 40; c.Generations = 12; c.Seed = int64(i + 1); c.Workers = workers })
				if _, err := Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
