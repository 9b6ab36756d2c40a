package policy

// Golden-equivalence suite for the objective-engine rewiring of
// ChebyshevGA: the allocation-free Eq. 13 evaluation must leave
// assignments byte-for-byte unchanged from the seed implementation
// (refChebyshevAssign below carries the pre-engine fitness path
// verbatim), with and without a genome-keyed memo in front of the
// scorer and for Workers ∈ {1, 4}.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chebymc/internal/core"
	"chebymc/internal/edfvd"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/taskgen"
)

// refChebyshevAssign is the seed ChebyshevGA.Assign: per-genome
// core.Apply with an edfvd.Schedulable gate, frozen as the reference.
func refChebyshevAssign(p ChebyshevGA, ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	hcs := ts.ByCrit(mc.HC)
	if len(hcs) == 0 {
		return core.Apply(ts, nil)
	}
	nCap := p.NCap
	if nCap == 0 {
		nCap = 50
	}
	bounds := make([]ga.Bound, len(hcs))
	for i, t := range hcs {
		hi := core.NMax(t)
		if hi < 0 {
			return core.Assignment{}, fmt.Errorf("policy: task %d: ACET exceeds WCET^pes", t.ID)
		}
		bounds[i] = ga.Bound{Lo: 0, Hi: math.Min(hi, nCap)}
	}
	fitness := func(g []float64) float64 {
		a, err := core.Apply(ts, g)
		if err != nil {
			return math.Inf(-1)
		}
		if p.RequireLC && !edfvd.Schedulable(a.TaskSet).Schedulable {
			return math.Inf(-1)
		}
		return a.Objective
	}
	cfg := fillGADefaults(p.Config)
	cfg.Seed = r.Int63()
	res, err := ga.Run(ga.Problem{Bounds: bounds, Fitness: fitness}, cfg)
	if err != nil {
		return core.Assignment{}, err
	}
	if math.IsInf(res.BestFitness, -1) {
		return core.Assignment{}, fmt.Errorf("policy: no feasible assignment found")
	}
	return core.Apply(ts, res.Best)
}

func assertAssignmentsEqual(t *testing.T, got, want core.Assignment) {
	t.Helper()
	if len(got.NS) != len(want.NS) {
		t.Fatalf("NS length %d, want %d", len(got.NS), len(want.NS))
	}
	for i := range got.NS {
		if got.NS[i] != want.NS[i] {
			t.Errorf("NS[%d] = %v, want %v", i, got.NS[i], want.NS[i])
		}
	}
	if got.PMS != want.PMS || got.MaxULCLO != want.MaxULCLO || got.Objective != want.Objective {
		t.Errorf("(PMS, maxU, obj) = (%v, %v, %v), want (%v, %v, %v)",
			got.PMS, got.MaxULCLO, got.Objective, want.PMS, want.MaxULCLO, want.Objective)
	}
	for i, task := range got.TaskSet.Tasks {
		if task.CLO != want.TaskSet.Tasks[i].CLO {
			t.Errorf("task %d: CLO = %v, want %v", task.ID, task.CLO, want.TaskSet.Tasks[i].CLO)
		}
	}
}

// memoFitness caches a fitness function by the exact bits of the genome
// and counts the calls it serves from the cache. It is safe for the
// GA's concurrent workers.
type memoFitness struct {
	mu    sync.Mutex
	cache map[string]float64
	hits  int
}

func (m *memoFitness) wrap(f func([]float64) float64) func([]float64) float64 {
	m.cache = make(map[string]float64)
	return func(g []float64) float64 {
		key := make([]byte, 0, 8*len(g))
		for _, x := range g {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		m.mu.Lock()
		v, ok := m.cache[string(key)]
		if ok {
			m.hits++
		}
		m.mu.Unlock()
		if ok {
			return v
		}
		v = f(g)
		m.mu.Lock()
		m.cache[string(key)] = v
		m.mu.Unlock()
		return v
	}
}

// TestChebyshevGAGoldenEngine sweeps task sets × RequireLC × memo ×
// workers and asserts each engine configuration reproduces the seed
// assignment exactly. memo=false is Assign as shipped; memo=true puts
// a genome-keyed cache in front of Evaluator.Fitness, so a repeated
// genome is served its first score instead of a fresh pass — the
// search must not notice, because a score depends on the genome alone.
func TestChebyshevGAGoldenEngine(t *testing.T) {
	gen := rand.New(rand.NewSource(42))
	for set := 0; set < 6; set++ {
		var (
			ts  *mc.TaskSet
			err error
		)
		u := 0.4 + 0.1*float64(set)
		if set%2 == 0 {
			ts, err = taskgen.HCOnly(gen, taskgen.Config{}, u)
		} else {
			ts, err = taskgen.Mixed(gen, taskgen.Config{}, u)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ts.NumHC() == 0 {
			continue
		}
		requireLC := set%2 == 1 && ts.NumLC() > 0
		base := ChebyshevGA{Config: ga.Config{PopSize: 20, Generations: 25}, RequireLC: requireLC}
		want, refErr := refChebyshevAssign(base, ts, rand.New(rand.NewSource(int64(set+1))))
		for _, memo := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("set=%d/requireLC=%v/memo=%v/workers=%d", set, requireLC, memo, workers)
				t.Run(name, func(t *testing.T) {
					p := base
					p.Config.Workers = workers
					var m memoFitness
					var wrap func(func([]float64) float64) func([]float64) float64
					if memo {
						wrap = m.wrap
					}
					got, err := p.assignWith(t.Context(), ts, rand.New(rand.NewSource(int64(set+1))), wrap)
					if refErr != nil {
						if err == nil {
							t.Fatalf("reference errored (%v) but engine succeeded", refErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if memo && m.hits == 0 {
						t.Fatal("memo served no repeated genome; the memo axis tests nothing")
					}
					assertAssignmentsEqual(t, got, want)
				})
			}
		}
	}
}

// TestChebyshevGAGoldenEnginePaperConfig pins the paper's exact GA
// parameters (the Fig. 4/5 sweep configuration) on one task set.
func TestChebyshevGAGoldenEnginePaperConfig(t *testing.T) {
	gen := rand.New(rand.NewSource(99))
	ts, err := taskgen.HCOnly(gen, taskgen.Config{}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	base := ChebyshevGA{Config: ga.Config{PopSize: 40, Generations: 60}}
	want, err := refChebyshevAssign(base, ts, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := base.Assign(ts, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	assertAssignmentsEqual(t, got, want)
}
