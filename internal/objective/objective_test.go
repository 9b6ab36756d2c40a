package objective

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chebymc/internal/core"
	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
)

// refFitness is the reference the engine replaces: core.ApplyBound
// materialises the assignment, edfvd.Schedulable gates it under
// RequireLC, and core.ObjectiveValue scores it. Every test here pins the
// engine against it bit for bit.
func refFitness(ts *mc.TaskSet, requireLC bool, b stats.Bound) func([]float64) float64 {
	return func(g []float64) float64 {
		a, err := core.ApplyBound(ts, g, b)
		if err != nil {
			return math.Inf(-1)
		}
		if requireLC && !edfvd.Schedulable(a.TaskSet).Schedulable {
			return math.Inf(-1)
		}
		return core.ObjectiveValue(a.PMS, a.MaxULCLO)
	}
}

// randomSet draws a task set: HC-only or mixed, varying sizes.
func randomSet(t *testing.T, r *rand.Rand, mixed bool) *mc.TaskSet {
	t.Helper()
	u := 0.3 + r.Float64()*0.6
	var (
		ts  *mc.TaskSet
		err error
	)
	if mixed {
		ts, err = taskgen.Mixed(r, taskgen.Config{}, u)
	} else {
		ts, err = taskgen.HCOnly(r, taskgen.Config{}, u)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// randomGenome draws a genome inside the GA's gene bounds
// [0, min(NMax, 50)], occasionally pinning genes to the exact bounds to
// exercise the Eq. 9 clamp.
func randomGenome(r *rand.Rand, ts *mc.TaskSet) []float64 {
	hcs := ts.ByCrit(mc.HC)
	g := make([]float64, len(hcs))
	for i, t := range hcs {
		hi := math.Min(core.NMax(t), 50)
		switch r.Intn(10) {
		case 0:
			g[i] = 0
		case 1:
			g[i] = hi // exact NMax: the one-ulp clamp case
		default:
			g[i] = r.Float64() * hi
		}
	}
	return g
}

// edgeGenomes puts genes on the Eq. 9 boundary: for k = 0..3 the gene
// is n = 0, n = NMax exactly, NMax·(1 + Eq9Slack/2) (inside the slack, so
// the budget snaps to C^HI) and NMax·(1 + 2·Eq9Slack) (beyond C^HI by
// more than the slack whenever ACET < C^HI/2). Each edge is applied to
// one gene at a time, the others at 0, and then to every gene at once.
// σ = 0 tasks (NMax = +Inf, budget pinned at ACET) take n = 25·k.
func edgeGenomes(ts *mc.TaskSet) [][]float64 {
	hcs := ts.ByCrit(mc.HC)
	at := func(task mc.Task, k int) float64 {
		nmax := core.NMax(task)
		if math.IsInf(nmax, 1) {
			return 25 * float64(k)
		}
		return [...]float64{0, nmax, nmax * (1 + core.Eq9Slack/2), nmax * (1 + 2*core.Eq9Slack)}[k]
	}
	var out [][]float64
	for k := 0; k < 4; k++ {
		all := make([]float64, len(hcs))
		for i, task := range hcs {
			all[i] = at(task, k)
			one := make([]float64, len(hcs))
			one[i] = all[i]
			out = append(out, one)
		}
		out = append(out, all)
	}
	return out
}

// edgeSet is a hand-built set for the Eq. 9 boundaries: one σ = 0 HC
// task and two with ACET < C^HI/2, plus LC load for the RequireLC gate.
func edgeSet(t *testing.T) *mc.TaskSet {
	t.Helper()
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 4, CHI: 8, Period: 20, Profile: mc.Profile{ACET: 4, Sigma: 0}},
		{ID: 2, Crit: mc.HC, CLO: 10, CHI: 30, Period: 100, Profile: mc.Profile{ACET: 10, Sigma: 2}},
		{ID: 3, Crit: mc.HC, CLO: 4, CHI: 20, Period: 200, Profile: mc.Profile{ACET: 4, Sigma: 1.5}},
		{ID: 4, Crit: mc.LC, CLO: 2, CHI: 2, Period: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// assertMatchesRef checks e.Fitness against the reference for each
// genome, comparing bits so −Inf, ±0 and NaN payloads all count.
func assertMatchesRef(t *testing.T, e *Evaluator, ref func([]float64) float64, genomes [][]float64) {
	t.Helper()
	for gi, g := range genomes {
		got, want := e.Fitness(g), ref(g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("genome %d %v: Fitness = %v, reference = %v", gi, g, got, want)
		}
	}
}

// TestFitnessMatchesApplyPath: the engine's full evaluation must equal
// the core.ApplyBound + edfvd.Schedulable + core.ObjectiveValue
// reference to the last bit, over random task sets × genomes ×
// RequireLC, with every set's Eq. 9 edge genomes included; the edges
// subtest pins what the boundaries mean on a hand-built set.
func TestFitnessMatchesApplyPath(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, requireLC := range []bool{false, true} {
			t.Run(fmt.Sprintf("mixed=%v/requireLC=%v", mixed, requireLC), func(t *testing.T) {
				r := rand.New(rand.NewSource(11))
				for set := 0; set < 40; set++ {
					ts := randomSet(t, r, mixed)
					if ts.NumHC() == 0 {
						continue
					}
					e, err := New(ts, Options{RequireLC: requireLC})
					if err != nil {
						t.Fatal(err)
					}
					genomes := edgeGenomes(ts)
					for trial := 0; trial < 25; trial++ {
						genomes = append(genomes, randomGenome(r, ts))
					}
					assertMatchesRef(t, e, refFitness(ts, requireLC, core.DefaultBound()), genomes)
				}
			})
		}
	}
	t.Run("edges", func(t *testing.T) {
		ts := edgeSet(t)
		e, err := New(ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hcs := ts.ByCrit(mc.HC)
		for i := 1; i < len(hcs); i++ { // hcs[0] is the σ = 0 task
			task := hcs[i]
			nmax := core.NMax(task)
			snap := make([]float64, len(hcs))
			snap[i] = nmax * (1 + core.Eq9Slack/2)
			a, err := core.Apply(ts, snap)
			if err != nil {
				t.Fatalf("task %d: NMax·(1+Eq9Slack/2) rejected: %v", task.ID, err)
			}
			if got := a.TaskSet.ByCrit(mc.HC)[i].CLO; got != task.CHI {
				t.Errorf("task %d: NMax·(1+Eq9Slack/2) budget %v, want C^HI %v", task.ID, got, task.CHI)
			}
			if math.IsInf(e.Fitness(snap), -1) {
				t.Errorf("task %d: NMax·(1+Eq9Slack/2) scored infeasible", task.ID)
			}
			over := make([]float64, len(hcs))
			over[i] = nmax * (1 + 2*core.Eq9Slack)
			if got := e.Fitness(over); !math.IsInf(got, -1) {
				t.Errorf("task %d: NMax·(1+2·Eq9Slack) scored %v, want −Inf", task.ID, got)
			}
		}
	})
}

// TestFitnessInfeasibleGenomes: out-of-contract genomes (negative n,
// Eq. 9 violations) must score -Inf exactly like the reference path.
func TestFitnessInfeasibleGenomes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ts := randomSet(t, r, false)
	ref := refFitness(ts, false, core.DefaultBound())
	e, err := New(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := ts.NumHC()
	cases := [][]float64{
		make([]float64, h), // all zeros: feasible baseline
	}
	neg := make([]float64, h)
	neg[0] = -1
	cases = append(cases, neg)
	huge := make([]float64, h)
	for i := range huge {
		huge[i] = 1e9 // far beyond NMax for any task with σ > 0
	}
	cases = append(cases, huge)
	for ci, g := range cases {
		want := ref(g)
		if got := e.Fitness(g); got != want {
			t.Errorf("case %d: Fitness = %v, want %v", ci, got, want)
		}
	}
}

// TestWorkerInvariance: one Evaluator shared by 8 goroutines must score
// every genome exactly as a serial caller does, under every bound with
// the RequireLC gate on. Run under -race it also proves Fitness touches
// no shared mutable state.
func TestWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ts := randomSet(t, r, true)
	for ts.NumHC() == 0 {
		ts = randomSet(t, r, true)
	}
	genomes := edgeGenomes(ts)
	for len(genomes) < 64 {
		genomes = append(genomes, randomGenome(r, ts))
	}
	for _, b := range testBounds() {
		e, err := New(ts, Options{RequireLC: true, Bound: b})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(genomes))
		for i, g := range genomes {
			want[i] = e.Fitness(g)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, g := range genomes {
					if got := e.Fitness(g); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s: concurrent Fitness(genome %d) = %v, serial %v", b.Name(), i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestNewRejectsNoHC: a set without HC tasks has nothing to optimise.
func TestNewRejectsNoHC(t *testing.T) {
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.LC, CLO: 1, CHI: 1, Period: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ts, Options{}); err == nil {
		t.Error("New must reject a set without HC tasks")
	}
}

// TestZeroSigmaTasks: σ = 0 tasks (NMax = +Inf, budget pinned at ACET)
// must round-trip through the engine like the reference path.
func TestZeroSigmaTasks(t *testing.T) {
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 4, CHI: 8, Period: 20, Profile: mc.Profile{ACET: 4, Sigma: 0}},
		{ID: 2, Crit: mc.HC, CLO: 5, CHI: 10, Period: 40, Profile: mc.Profile{ACET: 5, Sigma: 0.5}},
		{ID: 3, Crit: mc.LC, CLO: 2, CHI: 2, Period: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := refFitness(ts, true, core.DefaultBound())
	e, err := New(ts, Options{RequireLC: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := []float64{r.Float64() * 50, r.Float64() * 10}
		want := ref(g)
		if got := e.Fitness(g); got != want {
			t.Fatalf("trial %d: Fitness = %v, want %v (genome %v)", trial, got, want, g)
		}
	}
}
