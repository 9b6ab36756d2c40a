package sim

import (
	"reflect"
	"testing"

	"chebymc/internal/dist"
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
