package sim

import (
	"context"
	"math"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

func adaptiveFixture(t *testing.T) (*mc.TaskSet, Config) {
	t.Helper()
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
			Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
		{ID: 2, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewTruncNormal(18, 5, 0, 72)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.Horizon = 2000
	cfg.Exec = map[int]dist.Dist{1: d}
	cfg.Seed = 11
	return ts, cfg
}

func overran(m Metrics) bool { return m.Overruns > 0 }

func TestWilsonHalfWidth(t *testing.T) {
	if hw := WilsonHalfWidth(0, 0); !math.IsInf(hw, 1) {
		t.Fatalf("hw(0,0) = %g, want +Inf", hw)
	}
	// Informative at p̂ = 0 and shrinking with n.
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000} {
		hw := WilsonHalfWidth(0, n)
		if hw <= 0 || hw >= prev {
			t.Fatalf("hw(0,%d) = %g not in (0, %g)", n, hw, prev)
		}
		prev = hw
	}
	// Symmetric in hits ↔ misses.
	if a, b := WilsonHalfWidth(3, 10), WilsonHalfWidth(7, 10); math.Abs(a-b) > 1e-15 {
		t.Fatalf("asymmetric: %g vs %g", a, b)
	}
}

// TestAdaptiveAllocConverges checks that a loose tolerance stops well
// short of the budget and that the estimate matches a hand-computed one
// over the same replication prefix.
func TestAdaptiveAllocConverges(t *testing.T) {
	ts, cfg := adaptiveFixture(t)
	ctx := context.Background()
	res, err := AdaptiveAlloc(ctx, ts, cfg, overran, AdaptiveOptions{
		Eps: 0.1, MaxRuns: 10000, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("eps=0.1 did not converge within %d runs (hw %g)", res.Runs, res.HalfWidth)
	}
	if res.Saved == 0 || res.Runs+res.Saved != 10000 {
		t.Fatalf("runs %d saved %d inconsistent with budget", res.Runs, res.Saved)
	}
	if res.HalfWidth > 0.1 {
		t.Fatalf("half-width %g above eps", res.HalfWidth)
	}

	// The first Runs replications are the same simulations a fixed-count
	// call performs: recompute the estimate independently.
	ms, err := ReplicateCtx(ctx, ts, cfg, res.Runs, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, m := range ms {
		if overran(m) {
			hits++
		}
	}
	if hits != res.Hits {
		t.Fatalf("hits %d, independent recount %d", res.Hits, hits)
	}
	if want := float64(hits) / float64(res.Runs); res.PHat != want {
		t.Fatalf("phat %g, want %g", res.PHat, want)
	}
}

// TestAdaptiveAllocDisabled checks Eps ≤ 0 spends the full budget.
func TestAdaptiveAllocDisabled(t *testing.T) {
	ts, cfg := adaptiveFixture(t)
	res, err := AdaptiveAlloc(context.Background(), ts, cfg, overran, AdaptiveOptions{
		MaxRuns: 300, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 300 || res.Saved != 0 || res.Converged {
		t.Fatalf("disabled stopping spent %d/300 (converged=%v)", res.Runs, res.Converged)
	}
}

// TestAdaptiveAllocBudgetBelowFloor: MinRuns clamps to the budget.
func TestAdaptiveAllocBudgetBelowFloor(t *testing.T) {
	ts, cfg := adaptiveFixture(t)
	res, err := AdaptiveAlloc(context.Background(), ts, cfg, overran, AdaptiveOptions{
		Eps: 1e-9, MaxRuns: 10, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 10 || res.Converged {
		t.Fatalf("budget 10: spent %d converged=%v", res.Runs, res.Converged)
	}
}

func TestAdaptiveAllocErrors(t *testing.T) {
	ts, cfg := adaptiveFixture(t)
	if _, err := AdaptiveAlloc(context.Background(), ts, cfg, overran, AdaptiveOptions{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := AdaptiveAlloc(context.Background(), ts, cfg, nil, AdaptiveOptions{MaxRuns: 1}); err == nil {
		t.Fatal("nil predicate accepted")
	}
}
