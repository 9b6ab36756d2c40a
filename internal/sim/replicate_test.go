package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
	"chebymc/internal/rng"
)

func replicateCfg(t *testing.T) Config {
	t.Helper()
	d, err := dist.NewTruncNormal(15, 2.5, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Horizon: 2000, Exec: map[int]dist.Dist{1: d}, Seed: 9}
}

func TestReplicateWorkerInvariant(t *testing.T) {
	ts := mkSet(t)
	cfg := replicateCfg(t)
	base, err := ReplicateCtx(t.Context(), ts, cfg, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 16 {
		t.Fatalf("got %d runs, want 16", len(base))
	}
	for _, workers := range []int{2, 8} {
		got, err := ReplicateCtx(t.Context(), ts, cfg, 16, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d metrics diverge from serial", workers)
		}
	}
}

func TestReplicateRunsAreIndependent(t *testing.T) {
	ts := mkSet(t)
	ms, err := ReplicateCtx(t.Context(), ts, replicateCfg(t), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Derived per-run seeds must differ: with a stochastic execution
	// distribution, at least two runs must observe different overrun
	// counts (all-equal would suggest a shared seed).
	distinct := map[int]bool{}
	for _, m := range ms {
		distinct[m.Overruns] = true
		if m.HCReleased == 0 {
			t.Fatal("a replication released no HC jobs")
		}
	}
	if len(distinct) < 2 {
		t.Errorf("all %d runs have identical overrun counts %v — seeds look shared", len(ms), ms[0].Overruns)
	}
}

func TestReplicateValidation(t *testing.T) {
	ts := mkSet(t)
	if _, err := ReplicateCtx(t.Context(), ts, replicateCfg(t), 0, 4); err == nil {
		t.Error("runs = 0 must error")
	}
	if _, err := ReplicateCtx(t.Context(), ts, Config{Horizon: -1}, 4, 2); err == nil {
		t.Error("invalid config must error")
	}
	if _, err := ReplicateCtx(t.Context(), nil, replicateCfg(t), 4, 2); err == nil {
		t.Error("nil task set must error")
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Runs != 0 || s.MeanOverrunRate != 0 {
		t.Error("empty summary must be zero")
	}
	ts := mkSet(t)
	ms, err := ReplicateCtx(t.Context(), ts, replicateCfg(t), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(ms)
	if s.Runs != 6 {
		t.Errorf("runs = %d, want 6", s.Runs)
	}
	if s.MeanUtilisation <= 0 || s.MeanUtilisation > 1 {
		t.Errorf("mean utilisation %g implausible", s.MeanUtilisation)
	}
	if s.MeanOverrunRate < 0 || s.MeanOverrunRate > 1 {
		t.Errorf("mean overrun rate %g out of [0, 1]", s.MeanOverrunRate)
	}
}

// Replication-equivalence suite: a replication batch — simulators reused
// across runs through reset, and periodic jitter-free configurations
// reading the shared release table — must reproduce, byte for byte and
// at every worker count, what a fresh Simulator per run computes with
// its own release heap.

// batchGoldenExec builds the golden matrix's execution distributions: a
// TruncNormal with a tail well past C^LO so overruns and mode switches
// occur.
func batchGoldenExec(t *testing.T, ts *mc.TaskSet) map[int]dist.Dist {
	t.Helper()
	exec := map[int]dist.Dist{}
	for _, task := range ts.Tasks {
		hi := task.CHI
		if task.Crit == mc.LC {
			hi = task.CLO
		}
		d, err := dist.NewTruncNormal(0.9*task.CLO, 0.25*task.CLO, 0, 1.2*hi)
		if err != nil {
			t.Fatal(err)
		}
		exec[task.ID] = d
	}
	return exec
}

// independentRuns computes replications [0, runs) the slow way: a fresh
// Simulator per run, seeded as ReplicateCtx seeds it, walking its own
// release heap.
func independentRuns(t *testing.T, ts *mc.TaskSet, cfg Config, runs int) []Metrics {
	t.Helper()
	out := make([]Metrics, runs)
	for i := range out {
		c := cfg
		c.Seed = rng.Derive(cfg.Seed, int64(i))
		s, err := New(ts, c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s.Run()
	}
	return out
}

// assertBatchEqual compares ReplicateBatchCtx against independent runs
// for one configuration at several worker counts, including one that
// does not divide runs and one past runs.
func assertBatchEqual(t *testing.T, ts *mc.TaskSet, cfg Config, runs int) {
	t.Helper()
	want := independentRuns(t, ts, cfg, runs)
	for _, workers := range []int{1, 2, 4, runs + 1} {
		got, err := ReplicateBatchCtx(context.Background(), ts, cfg, runs, workers, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d run=%d diverges:\n got  %+v\n want %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchEquivalenceMatrix sweeps the golden matrix through the
// replication path. Jitter variants walk per-run release heaps; the rest
// read the shared release table.
func TestBatchEquivalenceMatrix(t *testing.T) {
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
	}
	for setName, ts := range goldenSets(t) {
		exec := batchGoldenExec(t, ts)
		for jitName, mkJitter := range jitters {
			for _, pol := range []Policy{DropAll, Degrade} {
				for _, x := range []float64{0, 0.9} {
					if x == 0 && setName == "all-LC" {
						continue // EDF-VD X is undefined without HC tasks
					}
					cfg := Config{
						Horizon: 20000,
						Policy:  pol,
						Exec:    exec,
						Jitter:  mkJitter(ts),
						X:       x,
						Seed:    1,
					}
					name := fmt.Sprintf("%s/%s/%v/x=%g", setName, jitName, pol, x)
					t.Run(name, func(t *testing.T) {
						assertBatchEqual(t, ts, cfg, 33)
					})
				}
			}
		}
	}
}

// TestBatchEquivalenceDegenerate covers the corner configurations: tiny
// horizons that cut the first jobs, no execution distributions (zero
// RNG draws), custom degrade factors, the 20-task benchmark workload,
// and event logging on reused simulators.
func TestBatchEquivalenceDegenerate(t *testing.T) {
	sets := goldenSets(t)

	t.Run("horizon-shorter-than-first-period", func(t *testing.T) {
		assertBatchEqual(t, sets["two-task"], Config{Horizon: 30, Seed: 1}, 17)
	})
	t.Run("horizon-cuts-running-job", func(t *testing.T) {
		assertBatchEqual(t, sets["two-task"], Config{Horizon: 15, Seed: 1}, 17)
	})
	t.Run("no-exec-dists", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{Horizon: 20000, Seed: 4}, 9)
	})
	t.Run("degrade-factor-custom", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{
			Horizon: 20000, Policy: Degrade, DegradeFactor: 0.3,
			Exec: batchGoldenExec(t, sets["heavy"]), Seed: 5,
		}, 33)
	})
	t.Run("event-logging-delegates", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{
			Horizon: 20000, Exec: batchGoldenExec(t, sets["heavy"]),
			Seed: 6, MaxEvents: 1 << 10,
		}, 9)
	})
	t.Run("twenty-task-bench-config", func(t *testing.T) {
		ts, cfg := benchSet(t, 20)
		cfg.Jitter = nil // the shared-table path; jitter is covered above
		assertBatchEqual(t, ts, cfg, 17)
		cfg.Policy = Degrade
		assertBatchEqual(t, ts, cfg, 17)
	})
}

// TestBatchWidthInvariance pins the property the adaptive allocator and
// the CI checkpoint-identity check rely on: replication i depends only
// on (cfg, i) — never on the worker count, the ignored batch argument of
// ReplicateBatchCtx, or which range it was computed in.
func TestBatchWidthInvariance(t *testing.T) {
	ts := goldenSets(t)["heavy"]
	cfg := Config{Horizon: 20000, Exec: batchGoldenExec(t, ts), Seed: 42}
	ctx := context.Background()
	const runs = 37
	want, err := ReplicateCtx(ctx, ts, cfg, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 1, 5, 64} {
		for _, workers := range []int{1, 3} {
			got, err := ReplicateBatchCtx(ctx, ts, cfg, runs, workers, batch)
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batch=%d workers=%d run=%d diverges", batch, workers, i)
				}
			}
		}
	}
}

// TestReplicateInto pins the fold contract: run order, the global run
// index space (an extension [n, m) reproduces the same replications a
// full [0, m) pass computes, across several fold waves and at several
// worker counts), and range validation.
func TestReplicateInto(t *testing.T) {
	ts := goldenSets(t)["heavy"]
	cfg := Config{Horizon: 2000, Exec: batchGoldenExec(t, ts), Seed: 7}
	ctx := t.Context()
	const to = 3*foldWave + 11
	want := independentRuns(t, ts, cfg, to)

	for _, workers := range []int{1, 3} {
		next := 5
		err := ReplicateInto(ctx, ts, cfg, 5, to, workers, func(run int, m Metrics) {
			if run != next {
				t.Fatalf("workers=%d: fold out of order: got run %d, want %d", workers, run, next)
			}
			next++
			if m != want[run] {
				t.Fatalf("workers=%d: run %d diverges:\n got  %+v\n want %+v", workers, run, m, want[run])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != to {
			t.Fatalf("workers=%d: fold stopped at run %d, want %d", workers, next, to)
		}
	}

	if err := ReplicateInto(ctx, ts, cfg, 3, 3, 1, func(int, Metrics) {
		t.Fatal("fold called on empty range")
	}); err != nil {
		t.Fatalf("empty range: %v", err)
	}
	if err := ReplicateInto(ctx, ts, cfg, -1, 3, 1, nil); err == nil {
		t.Fatal("negative from accepted")
	}
	if err := ReplicateInto(ctx, ts, cfg, 5, 4, 1, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
}
