// Package ga is the optimisation substrate: a from-scratch genetic
// algorithm with exactly the operators and parameters the paper uses via
// DEAP [25] — two-point crossover (p = 0.8), single-point mutation
// (p = 0.2) and tournament selection with five participants. Genomes are
// fixed-length real vectors with per-gene bounds; runs are deterministic
// given a seed, for any Config.Workers value: breeding (every random
// draw) stays on one serial path and only the pure fitness evaluations
// fan out.
package ga

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"chebymc/internal/obs"
	"chebymc/internal/par"
)

// Search telemetry, flushed once per Run (never per generation or per
// evaluation — the scoring hot path counts into locals).
var (
	obsRuns = obs.Default.Counter("ga_runs_total",
		"completed GA runs")
	obsGenerations = obs.Default.Counter("ga_generations_total",
		"generations evolved across all runs")
	obsFitnessEvals = obs.Default.Counter("ga_fitness_evals_total",
		"genomes handed to the fitness function")
	obsBestObjective = obs.Default.Gauge("ga_best_objective",
		"best fitness of the most recently completed GA run")
)

// Bound is the closed interval [Lo, Hi] a gene may take.
type Bound struct{ Lo, Hi float64 }

// Problem describes an optimisation problem. Fitness is maximised; return
// math.Inf(-1) for infeasible genomes.
type Problem struct {
	// Bounds gives the per-gene domains and fixes the genome length.
	Bounds []Bound
	// Fitness scores a genome. It must not retain or mutate the slice:
	// the algorithm passes its internal genome storage directly (no
	// defensive copy is made), and the same storage is reused across
	// generations.
	Fitness func(genome []float64) float64
}

// Config tunes the algorithm. Every field is taken literally — there are
// no zero-means-default sentinels. Start from Defaults() and override the
// fields you care about:
//
//	cfg := ga.Defaults()
//	cfg.Seed = 42
//	cfg.Workers = 8
//
// The one softening Run applies is Workers: 0, which evaluates serially
// (identical to Workers: 1) so a Config built field-by-field does not
// have to mention concurrency.
type Config struct {
	// PopSize is the population size (≥ 2).
	PopSize int
	// Generations is the number of generations (≥ 1).
	Generations int
	// CrossProb is the two-point crossover probability in [0, 1];
	// 0 disables crossover.
	CrossProb float64
	// MutProb is the single-point mutation probability in [0, 1];
	// 0 disables mutation.
	MutProb float64
	// TournamentK is the tournament size (≥ 1).
	TournamentK int
	// Elites is the number of best individuals copied unchanged into the
	// next generation, in [0, PopSize); 0 disables elitism.
	Elites int
	// Seed seeds the run.
	Seed int64
	// Workers bounds the goroutines evaluating fitness concurrently
	// within one generation. 0 and 1 both evaluate serially; any value
	// produces bit-identical results because every random draw happens
	// on the serial breeding path and Fitness is required to be pure.
	// Fitness must be safe for concurrent calls when Workers > 1.
	Workers int
}

// Defaults returns the paper's GA parameters (DEAP configuration of
// [25]): population 60 evolved for 120 generations, two-point crossover
// with probability 0.8, single-point mutation with probability 0.2,
// tournament selection over 5 participants, one elite, serial
// evaluation. Seed is 0 — set it per run.
func Defaults() Config {
	return Config{
		PopSize:     60,
		Generations: 120,
		CrossProb:   0.8,
		MutProb:     0.2,
		TournamentK: 5,
		Elites:      1,
		Workers:     1,
	}
}

func (c Config) validate() error {
	switch {
	case c.PopSize < 2:
		return fmt.Errorf("ga: population %d must be ≥ 2", c.PopSize)
	case c.Generations < 1:
		return fmt.Errorf("ga: generations %d must be ≥ 1", c.Generations)
	case c.CrossProb < 0 || c.CrossProb > 1:
		return fmt.Errorf("ga: crossover probability %g out of [0, 1]", c.CrossProb)
	case c.MutProb < 0 || c.MutProb > 1:
		return fmt.Errorf("ga: mutation probability %g out of [0, 1]", c.MutProb)
	case c.TournamentK < 1:
		return fmt.Errorf("ga: tournament size %d must be ≥ 1", c.TournamentK)
	case c.Elites < 0 || c.Elites >= c.PopSize:
		return fmt.Errorf("ga: elites %d out of [0, population)", c.Elites)
	case c.Workers < 1:
		return fmt.Errorf("ga: workers %d must be ≥ 1", c.Workers)
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	// Best is the best genome found across all generations.
	Best []float64
	// BestFitness is its fitness.
	BestFitness float64
	// History records the best fitness per generation.
	History []float64
}

type individual struct {
	genome  []float64
	fitness float64
}

// Run maximises p.Fitness. It returns an error for an invalid problem or
// configuration.
func Run(p Problem, cfg Config) (Result, error) {
	return RunCtx(context.Background(), p, cfg)
}

// RunCtx is Run with cooperative cancellation: ctx is checked once per
// generation (the natural unit of work — a generation is sub-millisecond
// at the paper's scales), and a cancelled search returns ctx's error with
// no partial Result. An uncancelled RunCtx is bit-identical to Run: the
// check draws no randomness and touches no GA state.
func RunCtx(ctx context.Context, p Problem, cfg Config) (Result, error) {
	if len(p.Bounds) == 0 {
		return Result{}, errors.New("ga: empty genome")
	}
	for i, b := range p.Bounds {
		if !(b.Lo <= b.Hi) || math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
			return Result{}, fmt.Errorf("ga: gene %d has invalid bounds [%g, %g]", i, b.Lo, b.Hi)
		}
	}
	if p.Fitness == nil {
		return Result{}, errors.New("ga: nil fitness function")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	dim := len(p.Bounds)

	sample := func(i int) float64 {
		b := p.Bounds[i]
		if b.Hi == b.Lo {
			return b.Lo
		}
		return b.Lo + r.Float64()*(b.Hi-b.Lo)
	}
	// evalAll scores a batch of genomes: serially into the reused
	// fitsBuf at Workers 1, fanned out over cfg.Workers goroutines
	// otherwise. Fitness is documented pure — it must not retain or
	// mutate the slice — and draws no randomness, so genomes are passed
	// without a defensive copy and scoring order cannot affect the run:
	// results are bit-identical for every worker count.
	fitsBuf := make([]float64, cfg.PopSize)
	var evals uint64 // flushed to obsFitnessEvals once per run
	evalAll := func(genomes [][]float64) []float64 {
		evals += uint64(len(genomes))
		if cfg.Workers == 1 {
			fits := fitsBuf[:len(genomes)]
			for i, g := range genomes {
				fits[i] = p.Fitness(g)
			}
			return fits
		}
		fits, _ := par.MapCtx(context.Background(), cfg.Workers, len(genomes), func(i int) (float64, error) {
			return p.Fitness(genomes[i]), nil
		})
		return fits
	}

	// Genomes live in two arenas ping-ponged between generations: the
	// current population reads from one while offspring are written into
	// the other, so the breeding loop allocates nothing in steady state.
	// Row PopSize is scratch for the second child of the final pair when
	// the population size leaves no room for it (its random draws happen
	// regardless, to keep the draw sequence identical).
	newArena := func() [][]float64 {
		flat := make([]float64, (cfg.PopSize+1)*dim)
		rows := make([][]float64, cfg.PopSize+1)
		for i := range rows {
			rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
		return rows
	}
	cur, nxt := newArena(), newArena()

	for _, g := range cur[:cfg.PopSize] {
		for k := range g {
			g[k] = sample(k)
		}
	}
	fits := evalAll(cur[:cfg.PopSize])
	pop := make([]individual, cfg.PopSize)
	for i := range pop {
		pop[i] = individual{genome: cur[i], fitness: fits[i]}
	}

	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness > best.fitness {
			best = ind
		}
	}
	// best keeps a private copy of the leading genome: the population
	// arenas are mutated in place every generation. One buffer reused
	// across improvements avoids an allocation per new best.
	bestBuf := append([]float64(nil), best.genome...)
	best.genome = bestBuf

	res := Result{History: make([]float64, 0, cfg.Generations)}

	tournament := func() individual {
		winner := pop[r.Intn(len(pop))]
		for i := 1; i < cfg.TournamentK; i++ {
			c := pop[r.Intn(len(pop))]
			if c.fitness > winner.fitness {
				winner = c
			}
		}
		return winner
	}

	// Reusable per-generation buffers: the next population, the offspring
	// batch handed to evalAll, and the elite-selection marker.
	nextBuf := make([]individual, 0, cfg.PopSize)
	offspring := make([][]float64, 0, cfg.PopSize)
	var taken []bool
	if cfg.Elites > 0 {
		taken = make([]bool, cfg.PopSize)
	}

	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("ga: cancelled after %d of %d generations: %w", gen, cfg.Generations, err)
		}
		next := nextBuf[:0]

		// Elitism: carry the current best few unchanged. Partial top-K
		// selection — repeatedly take the highest fitness, ties broken by
		// the earliest position — yields exactly the prefix a stable
		// descending sort would, in O(K·n) instead of O(n log n), and is
		// skipped entirely when no elites are requested.
		if cfg.Elites > 0 {
			for i := range taken {
				taken[i] = false
			}
			for e := 0; e < cfg.Elites; e++ {
				bi := -1
				for i := range pop {
					if taken[i] {
						continue
					}
					if bi < 0 || pop[i].fitness > pop[bi].fitness {
						bi = i
					}
				}
				taken[bi] = true
				row := nxt[len(next)]
				copy(row, pop[bi].genome)
				next = append(next, individual{genome: row, fitness: pop[bi].fitness})
			}
		}

		// Breed the full offspring batch on the serial path — every
		// random draw happens here, in the same order for any Workers —
		// then score the batch. Winners are copied into next-arena rows
		// and operators mutate those copies in place.
		offspring = offspring[:0]
		for len(next)+len(offspring) < cfg.PopSize {
			ra := nxt[len(next)+len(offspring)]
			copy(ra, tournament().genome)
			// The second child's row index tops out at PopSize — the
			// scratch row — exactly when the child will be discarded.
			rb := nxt[len(next)+len(offspring)+1]
			copy(rb, tournament().genome)
			if r.Float64() < cfg.CrossProb {
				twoPointCrossover(r, ra, rb)
			}
			if r.Float64() < cfg.MutProb {
				mutateOne(r, ra, p.Bounds)
			}
			if r.Float64() < cfg.MutProb {
				mutateOne(r, rb, p.Bounds)
			}
			offspring = append(offspring, ra)
			if len(next)+len(offspring) < cfg.PopSize {
				offspring = append(offspring, rb)
			}
		}
		for i, f := range evalAll(offspring) {
			next = append(next, individual{genome: offspring[i], fitness: f})
		}
		pop, nextBuf = next, pop[:0]
		cur, nxt = nxt, cur

		for _, ind := range pop {
			if ind.fitness > best.fitness {
				copy(bestBuf, ind.genome)
				best.fitness = ind.fitness
			}
		}
		res.History = append(res.History, best.fitness)
	}

	res.Best = best.genome
	res.BestFitness = best.fitness

	obsRuns.Inc()
	obsGenerations.Add(uint64(cfg.Generations))
	obsFitnessEvals.Add(evals)
	obsBestObjective.Set(res.BestFitness)
	return res, nil
}

// twoPointCrossover swaps the gene segment between two cut points of a and
// b in place. For genomes of length 1 it degenerates to a full swap
// without drawing randomness.
func twoPointCrossover(r *rand.Rand, a, b []float64) {
	n := len(a)
	if n == 1 {
		a[0], b[0] = b[0], a[0]
		return
	}
	i, j := r.Intn(n), r.Intn(n)
	if i > j {
		i, j = j, i
	}
	for k := i; k <= j; k++ {
		a[k], b[k] = b[k], a[k]
	}
}

// mutateOne re-samples one uniformly chosen gene within its bounds —
// single-point mutation.
func mutateOne(r *rand.Rand, g []float64, bounds []Bound) {
	i := r.Intn(len(g))
	b := bounds[i]
	if b.Hi == b.Lo {
		g[i] = b.Lo
		return
	}
	g[i] = b.Lo + r.Float64()*(b.Hi-b.Lo)
}
