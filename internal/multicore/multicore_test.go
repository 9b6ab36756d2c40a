package multicore

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/taskgen"
)

// smallGA keeps the per-core search fast enough for property loops while
// still exercising the real ChebyshevGA path.
func smallGA() policy.ChebyshevGA {
	return policy.ChebyshevGA{Config: ga.Config{PopSize: 8, Generations: 4}}
}

func mixedSet(t testing.TB, seed int64, u float64) *mc.TaskSet {
	t.Helper()
	ts, err := taskgen.Mixed(rand.New(rand.NewSource(seed)), taskgen.Config{}, u)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Cores: -1}); err == nil {
		t.Error("negative core count must error")
	}
	if _, err := New(Config{Heuristic: partition.Heuristic(9)}); err == nil {
		t.Error("unknown heuristic must error")
	}
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Policy().(policy.ChebyshevGA); !ok {
		t.Errorf("zero config policy = %T, want ChebyshevGA", sys.Policy())
	}
}

// TestSingleCoreBitIdentity pins the determinism contract the whole stack
// above relies on: with Cores ≤ 1 the System is a passthrough, producing
// exactly what calling the policy directly produces — same NS vector,
// same budgets, same floats — regardless of the configured heuristic.
func TestSingleCoreBitIdentity(t *testing.T) {
	pol := smallGA()
	for _, cores := range []int{0, 1} {
		for _, h := range partition.Heuristics() {
			for seed := int64(1); seed <= 5; seed++ {
				ts := mixedSet(t, seed, 0.7)
				want, err := policy.AssignCtx(t.Context(), pol, ts, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed %d: direct: %v", seed, err)
				}
				sys, err := New(Config{Cores: cores, Heuristic: h, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sys.AssignCtx(t.Context(), ts, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed %d: system: %v", seed, err)
				}
				if !reflect.DeepEqual(got.Cores[0].Assignment, want) {
					t.Fatalf("cores=%d h=%s seed %d: core assignment differs from direct policy call",
						cores, h, seed)
				}
				if got.PMS != want.PMS || got.MaxULCLO != want.MaxULCLO || got.Objective != want.Objective {
					t.Fatalf("cores=%d h=%s seed %d: composed floats differ: %+v vs %+v",
						cores, h, seed, got, want)
				}
				if !reflect.DeepEqual(got.TaskSet, want.TaskSet) {
					t.Fatalf("cores=%d h=%s seed %d: merged task set differs", cores, h, seed)
				}
			}
		}
	}
}

// TestWorkerInvariance: per-core searches run on derived streams, so the
// Workers knob must never change the result.
func TestWorkerInvariance(t *testing.T) {
	ts := mixedSet(t, 3, 2.0)
	var want Assignment
	for i, workers := range []int{0, 1, 2, 8} {
		sys, err := New(Config{Cores: 4, Policy: smallGA(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.AssignCtx(t.Context(), ts, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: assignment differs from workers=0", workers)
		}
	}
}

// TestComposition checks the system roll-up against the per-core parts:
// Eq. 10 product across cores, summed LC capacity, ANDed Eq. 8.
func TestComposition(t *testing.T) {
	ts := mixedSet(t, 2, 2.0)
	sys, err := New(Config{Cores: 4, Policy: smallGA()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.AssignCtx(t.Context(), ts, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	noSwitch, sumU := 1.0, 0.0
	sched := true
	for _, c := range a.Cores {
		noSwitch *= 1 - c.Assignment.PMS
		sumU += c.Assignment.MaxULCLO
		sched = sched && c.EDFVD.Schedulable
	}
	if math.Abs(a.PMS-(1-noSwitch)) > 1e-12 {
		t.Errorf("PMS = %g, want 1-Π(1-Pc) = %g", a.PMS, 1-noSwitch)
	}
	if math.Abs(a.MaxULCLO-sumU) > 1e-12 {
		t.Errorf("MaxULCLO = %g, want Σ = %g", a.MaxULCLO, sumU)
	}
	if a.Schedulable != sched {
		t.Errorf("Schedulable = %v, want AND of cores = %v", a.Schedulable, sched)
	}
	// Placement bookkeeping round-trips.
	for _, c := range a.Cores {
		for _, id := range c.Tasks {
			if a.CoreOf[id] != c.Core {
				t.Errorf("task %d: CoreOf = %d, listed on core %d", id, a.CoreOf[id], c.Core)
			}
		}
	}
	// The merged set preserves input order and carries each HC task's
	// per-core budget.
	if len(a.TaskSet.Tasks) != len(ts.Tasks) {
		t.Fatalf("merged set has %d tasks, want %d", len(a.TaskSet.Tasks), len(ts.Tasks))
	}
	for i, tk := range a.TaskSet.Tasks {
		if tk.ID != ts.Tasks[i].ID {
			t.Fatalf("merged set reordered: task %d at %d, want %d", tk.ID, i, ts.Tasks[i].ID)
		}
		if tk.Crit != mc.HC {
			continue
		}
		coreSet := a.Cores[a.CoreOf[tk.ID]].Assignment.TaskSet
		found := false
		for _, ct := range coreSet.Tasks {
			if ct.ID == tk.ID {
				found = true
				if ct.CLO != tk.CLO {
					t.Errorf("task %d: merged C^LO %g != core C^LO %g", tk.ID, tk.CLO, ct.CLO)
				}
			}
		}
		if !found {
			t.Errorf("task %d missing from its core set", tk.ID)
		}
	}
}

// TestEmptyCores: more cores than tasks leaves idle cores that contribute
// a full processor of LC headroom and no switch probability.
func TestEmptyCores(t *testing.T) {
	tasks := []mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 10, CHI: 20, Period: 100, Profile: mc.Profile{ACET: 5, Sigma: 1}},
		{ID: 2, Crit: mc.LC, CLO: 10, CHI: 10, Period: 100},
	}
	ts, err := mc.NewTaskSet(tasks)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Cores: 8, Policy: smallGA()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.AssignCtx(t.Context(), ts, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if used := a.CoresUsed(); used > 2 {
		t.Errorf("2 tasks occupy %d cores", used)
	}
	empties := 0
	for _, c := range a.Cores {
		if !c.Empty {
			continue
		}
		empties++
		if c.Assignment.PMS != 0 || c.Assignment.MaxULCLO != 1 {
			t.Errorf("empty core %d: PMS=%g MaxULCLO=%g, want 0 and 1",
				c.Core, c.Assignment.PMS, c.Assignment.MaxULCLO)
		}
		if !c.EDFVD.Schedulable || c.EDFVD.X != 1 {
			t.Errorf("empty core %d: EDFVD = %+v, want schedulable at X=1", c.Core, c.EDFVD)
		}
	}
	if empties == 0 {
		t.Fatal("no empty core on 8 cores with 2 tasks")
	}
	sets := a.CoreSets()
	if len(sets) != 8 {
		t.Fatalf("CoreSets returned %d entries, want 8", len(sets))
	}
	for i, set := range sets {
		if (set == nil) != a.Cores[i].Empty {
			t.Errorf("core %d: nil set %v, empty %v", i, set == nil, a.Cores[i].Empty)
		}
	}
}

func TestUnplaced(t *testing.T) {
	// Every task alone overloads a core: no heuristic can place them.
	tasks := []mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 60, CHI: 90, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
		{ID: 2, Crit: mc.HC, CLO: 60, CHI: 90, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
		{ID: 3, Crit: mc.HC, CLO: 60, CHI: 90, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
		{ID: 4, Crit: mc.HC, CLO: 60, CHI: 90, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
		{ID: 5, Crit: mc.HC, CLO: 60, CHI: 90, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
	}
	ts, err := mc.NewTaskSet(tasks)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Cores: 2, Policy: smallGA()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.AssignCtx(t.Context(), ts, rand.New(rand.NewSource(1)))
	var ue *UnplacedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnplacedError", err)
	}
	if ue.Cores != 2 || ue.Heuristic != partition.FirstFit {
		t.Errorf("UnplacedError = %+v", ue)
	}
}
