package sim

// Golden-equivalence suite: the heap-based event loop must reproduce the
// seed implementation (golden_ref_test.go) byte for byte — every Metrics
// field, every per-task metric including response-time accumulators, and
// the complete event log — across seeds, policies, jitter configurations,
// virtual-deadline factors and degenerate task sets.

import (
	"fmt"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// job is the reference implementation's job record. The event loop
// keeps its jobs in structure-of-arrays slots instead (see heap.go).
type job struct {
	task      *mc.Task
	release   float64 // release instant
	absDL     float64 // real deadline
	virtDL    float64 // EDF-VD priority deadline (shrunk for HC in LO)
	remaining float64 // execution time still needed
	execTotal float64 // drawn execution time
	consumed  float64 // processor time received
	degraded  bool
	dropped   bool
}

// goldenSets enumerates the task-set shapes under test, including the
// degenerate ones: a single task, an all-LC set (which needs an explicit
// X because the EDF-VD analysis yields X = 0 without HC load).
func goldenSets(t *testing.T) map[string]*mc.TaskSet {
	t.Helper()
	mk := func(tasks ...mc.Task) *mc.TaskSet {
		ts, err := mc.NewTaskSet(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	two := mk(
		mc.Task{ID: 1, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
			Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
		mc.Task{ID: 2, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
	)
	single := mk(
		mc.Task{ID: 1, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
			Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
	)
	allLC := mk(
		mc.Task{ID: 1, Crit: mc.LC, CLO: 10, CHI: 10, Period: 40},
		mc.Task{ID: 2, Crit: mc.LC, CLO: 5, CHI: 5, Period: 25},
		mc.Task{ID: 3, Crit: mc.LC, CLO: 8, CHI: 8, Period: 60},
	)
	// An overloaded set: deadline misses, long ready queues, jobs
	// spanning many preemptions.
	heavy := mk(
		mc.Task{ID: 1, Crit: mc.HC, CLO: 30, CHI: 70, Period: 100,
			Profile: mc.Profile{ACET: 25, Sigma: 4}},
		mc.Task{ID: 2, Crit: mc.HC, CLO: 40, CHI: 90, Period: 250,
			Profile: mc.Profile{ACET: 35, Sigma: 5}},
		mc.Task{ID: 3, Crit: mc.LC, CLO: 15, CHI: 15, Period: 60},
		mc.Task{ID: 4, Crit: mc.LC, CLO: 10, CHI: 10, Period: 45},
	)
	return map[string]*mc.TaskSet{
		"two-task": two, "single-task": single, "all-LC": allLC, "heavy": heavy,
	}
}

// assertGoldenEqual runs both implementations on one validated Simulator
// configuration and compares everything observable.
func assertGoldenEqual(t *testing.T, ts *mc.TaskSet, cfg Config) {
	t.Helper()
	ref, err := New(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(ref)

	s, err := New(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Run()

	if got != want.metrics {
		t.Errorf("metrics diverge:\n got  %+v\n want %+v", got, want.metrics)
	}
	per := s.PerTask()
	if len(per) != len(want.perTask) {
		t.Fatalf("per-task length %d, want %d", len(per), len(want.perTask))
	}
	for i := range per {
		if per[i] != want.perTask[i] {
			t.Errorf("per-task[%d] diverges:\n got  %+v\n want %+v", i, per[i], want.perTask[i])
		}
	}
	ev := s.Events()
	if len(ev) != len(want.events) {
		t.Fatalf("event log length %d, want %d", len(ev), len(want.events))
	}
	for i := range ev {
		if ev[i] != want.events[i] {
			t.Fatalf("event[%d] = %v, want %v", i, ev[i], want.events[i])
		}
	}
}

// TestGoldenEquivalenceMatrix sweeps seed × policy × jitter × X over
// every task-set shape with full event logging.
func TestGoldenEquivalenceMatrix(t *testing.T) {
	uni, err := dist.NewUniform(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	jitters := map[string]func(*mc.TaskSet) map[int]dist.Dist{
		"none": func(*mc.TaskSet) map[int]dist.Dist { return nil },
		"uniform": func(ts *mc.TaskSet) map[int]dist.Dist {
			j := map[int]dist.Dist{}
			for i, task := range ts.Tasks {
				if i%2 == 0 {
					j[task.ID] = uni
				}
			}
			return j
		},
		// Degenerate: a jitter entry that always draws zero — the draw
		// happens (consuming RNG state) but never stretches the period.
		"zero": func(ts *mc.TaskSet) map[int]dist.Dist {
			j := map[int]dist.Dist{}
			for _, task := range ts.Tasks {
				j[task.ID] = dist.NewDeterministic(0)
			}
			return j
		},
	}

	for setName, ts := range goldenSets(t) {
		exec := map[int]dist.Dist{}
		for _, task := range ts.Tasks {
			hi := task.CHI
			if task.Crit == mc.LC {
				hi = task.CLO
			}
			// A tail well past C^LO so HC overruns and mode switches occur.
			d, err := dist.NewTruncNormal(0.9*task.CLO, 0.25*task.CLO, 0, 1.2*hi)
			if err != nil {
				t.Fatal(err)
			}
			exec[task.ID] = d
		}
		for jitName, mkJitter := range jitters {
			for _, pol := range []Policy{DropAll, Degrade} {
				for _, x := range []float64{0, 0.9, 1} {
					if x == 0 && setName == "all-LC" {
						continue // EDF-VD X is undefined without HC tasks
					}
					for seed := int64(1); seed <= 3; seed++ {
						cfg := Config{
							Horizon:   30000,
							Policy:    pol,
							Exec:      exec,
							Jitter:    mkJitter(ts),
							X:         x,
							Seed:      seed,
							MaxEvents: 1 << 20,
						}
						name := fmt.Sprintf("%s/%s/%v/x=%g/seed=%d", setName, jitName, pol, x, seed)
						t.Run(name, func(t *testing.T) {
							assertGoldenEqual(t, ts, cfg)
						})
					}
				}
			}
		}
	}
}

// TestGoldenEquivalenceDegenerate covers the corner configurations that
// stress loop entry and exit conditions.
func TestGoldenEquivalenceDegenerate(t *testing.T) {
	sets := goldenSets(t)

	t.Run("horizon-shorter-than-first-period", func(t *testing.T) {
		// Only the t=0 releases fire; every later release is beyond the
		// horizon and must never be scheduled.
		assertGoldenEqual(t, sets["two-task"], Config{
			Horizon: 30, Seed: 1, MaxEvents: 1 << 16,
		})
	})
	t.Run("horizon-cuts-running-job", func(t *testing.T) {
		// The horizon lands inside a job's execution: the partial-progress
		// branch must account BusyTime identically.
		assertGoldenEqual(t, sets["two-task"], Config{
			Horizon: 15, Seed: 1, MaxEvents: 1 << 16,
		})
	})
	t.Run("no-exec-dists", func(t *testing.T) {
		// Every job runs exactly C^LO: no overruns, no switches, and the
		// only RNG consumers would be jitter draws (absent here).
		assertGoldenEqual(t, sets["heavy"], Config{
			Horizon: 20000, Seed: 4, MaxEvents: 1 << 20,
		})
	})
	t.Run("degrade-factor-custom", func(t *testing.T) {
		exec := map[int]dist.Dist{}
		for _, task := range sets["heavy"].Tasks {
			d, err := dist.NewTruncNormal(0.95*task.CLO, 0.3*task.CLO, 0, task.CHI)
			if err != nil {
				t.Fatal(err)
			}
			exec[task.ID] = d
		}
		assertGoldenEqual(t, sets["heavy"], Config{
			Horizon: 20000, Policy: Degrade, DegradeFactor: 0.3,
			Exec: exec, Seed: 5, MaxEvents: 1 << 20,
		})
	})
	t.Run("event-log-truncation", func(t *testing.T) {
		// A tiny MaxEvents: the cap must cut the log at the same event.
		exec := map[int]dist.Dist{}
		for _, task := range sets["two-task"].Tasks {
			d, err := dist.NewTruncNormal(0.9*task.CLO, 0.25*task.CLO, 0, task.CHI)
			if err != nil {
				t.Fatal(err)
			}
			exec[task.ID] = d
		}
		assertGoldenEqual(t, sets["two-task"], Config{
			Horizon: 50000, Exec: exec, Seed: 6, MaxEvents: 37,
		})
	})
	t.Run("no-event-log", func(t *testing.T) {
		assertGoldenEqual(t, sets["heavy"], Config{
			Horizon: 20000, Seed: 7,
		})
	})
	t.Run("twenty-task-bench-config", func(t *testing.T) {
		// The benchmark workload itself: 20 tasks, ~85% utilisation,
		// jitter on every fifth task.
		ts, cfg := benchSet(t, 20)
		cfg.Horizon = 50000
		cfg.MaxEvents = 1 << 20
		assertGoldenEqual(t, ts, cfg)
		cfg.Policy = Degrade
		assertGoldenEqual(t, ts, cfg)
	})
}
