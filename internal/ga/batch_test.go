package ga

// Scoring-path tests: Run scores each generation's batch in a plain
// serial loop at Workers 1 and through par.MapCtx above it. Both paths
// must hand Fitness the same genomes, score each bred child exactly
// once, and produce the same Result.

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// recorder wraps a fitness and keeps a copy of every genome it scores.
type recorder struct {
	fit     func([]float64) float64
	mu      sync.Mutex
	genomes [][]float64
}

func (r *recorder) fitness(g []float64) float64 {
	r.mu.Lock()
	r.genomes = append(r.genomes, slices.Clone(g))
	r.mu.Unlock()
	return r.fit(g)
}

// assertPathsAgree runs p serially and at Workers 4 and checks that both
// produce the same Result, score the same multiset of genomes (concurrent
// scorers call Fitness in no fixed order), and score exactly the initial
// population plus PopSize − Elites children per generation — never the
// discarded second child of an odd population's final pair.
func assertPathsAgree(t *testing.T, bounds []Bound, fit func([]float64) float64, cfg Config) {
	t.Helper()
	run := func(workers int) (Result, [][]float64) {
		rec := &recorder{fit: fit}
		c := cfg
		c.Workers = workers
		res, err := Run(Problem{Bounds: bounds, Fitness: rec.fitness}, c)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(rec.genomes, slices.Compare[[]float64])
		return res, rec.genomes
	}
	serial, serialGenomes := run(1)
	batch, batchGenomes := run(4)
	if !reflect.DeepEqual(serial, batch) {
		t.Fatalf("Workers 4 diverged from serial:\nserial: %+v\nbatch:  %+v", serial, batch)
	}
	if want := cfg.PopSize + cfg.Generations*(cfg.PopSize-cfg.Elites); len(serialGenomes) != want {
		t.Errorf("serial loop scored %d genomes, want %d", len(serialGenomes), want)
	}
	if !reflect.DeepEqual(serialGenomes, batchGenomes) {
		t.Error("Workers 4 scored a different multiset of genomes than the serial loop")
	}
}

// TestBatchPathMatchesFitnessPath: scoring each generation as one
// concurrent batch must reproduce the serial per-genome Fitness loop run
// for run across three surfaces × elites × seeds.
func TestBatchPathMatchesFitnessPath(t *testing.T) {
	surfaces := map[string]func([]float64) float64{"sphere": sphere, "plateau": plateau, "rastrigin": rastrigin}
	for surfName, fit := range surfaces {
		for _, elites := range []int{0, 1, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/elites=%d/seed=%d", surfName, elites, seed)
				t.Run(name, func(t *testing.T) {
					cfg := cfgWith(func(c *Config) { c.PopSize = 24; c.Generations = 30; c.Elites = elites; c.Seed = seed })
					assertPathsAgree(t, goldenProblem(fit, 6).Bounds, fit, cfg)
				})
			}
		}
	}
}

// TestBatchOperatorEdges covers the breeding corners on both scoring
// paths: genome length 1 (crossover degenerates to a full swap),
// disabled operators (children are unmodified copies), and odd
// population sizes.
func TestBatchOperatorEdges(t *testing.T) {
	cases := map[string]struct {
		dim int
		cfg Config
	}{
		"genome-length-1": {1, cfgWith(func(c *Config) { c.PopSize = 16; c.Generations = 20; c.Seed = 4 })},
		"no-operators":    {4, cfgWith(func(c *Config) { c.PopSize = 14; c.Generations = 15; c.CrossProb = 0; c.MutProb = 0; c.Seed = 4 })},
		"odd-popsize":     {4, cfgWith(func(c *Config) { c.PopSize = 15; c.Generations = 15; c.Elites = 2; c.Seed = 4 })},
		"crossover-only":  {5, cfgWith(func(c *Config) { c.PopSize = 12; c.Generations = 15; c.MutProb = 0; c.Seed = 4 })},
		"mutation-only":   {5, cfgWith(func(c *Config) { c.PopSize = 12; c.Generations = 15; c.CrossProb = 0; c.Seed = 4 })},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			assertPathsAgree(t, goldenProblem(sphere, c.dim).Bounds, sphere, c.cfg)
		})
	}
}

// TestSerialScoringAllocatesPerRunOnly: at Workers 1 a run's allocations
// must not grow with the number of generations — the serial loop scores
// into a reused buffer, where par.MapCtx would allocate a result slice
// per generation.
func TestSerialScoringAllocatesPerRunOnly(t *testing.T) {
	bounds := goldenProblem(sphere, 4).Bounds
	p := Problem{Bounds: bounds, Fitness: func([]float64) float64 { return 0 }}
	allocs := func(generations int) float64 {
		cfg := cfgWith(func(c *Config) { c.Generations = generations; c.Seed = 1 })
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(p, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if at10, at100 := allocs(10), allocs(100); at100 != at10 {
		t.Errorf("allocations per run: %v at 100 generations, %v at 10", at100, at10)
	}
}

// TestNilFitness: a problem without a fitness function must error.
func TestNilFitness(t *testing.T) {
	if _, err := Run(Problem{Bounds: []Bound{{0, 1}}}, Config{}); err == nil {
		t.Error("nil fitness must error")
	}
}
