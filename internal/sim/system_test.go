package sim

import (
	"math"
	"reflect"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// systemSets builds a two-core partition: core 0 carries an HC task whose
// execution distribution overruns its C^LO in roughly half the runs, core
// 1 carries an HC task that never overruns plus an LC task. Core 0 is the
// switching core; core 1 must never notice.
func systemSets(t testing.TB) []*mc.TaskSet {
	t.Helper()
	overrun, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 10, CHI: 30, Period: 100, Profile: mc.Profile{ACET: 9, Sigma: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := mc.NewTaskSet([]mc.Task{
		{ID: 2, Crit: mc.HC, CLO: 20, CHI: 30, Period: 100, Profile: mc.Profile{ACET: 5, Sigma: 1}},
		{ID: 3, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*mc.TaskSet{overrun, quiet}
}

// execOverCLO gives task 1 a distribution centred above its C^LO = 10 (but
// below C^HI), so core 0 switches in most runs.
func execOverCLO(t testing.TB) map[int]dist.Dist {
	t.Helper()
	d, err := dist.NewTruncNormal(12, 2, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	return map[int]dist.Dist{1: d}
}

func TestReplicateSystemDeterminism(t *testing.T) {
	sets := systemSets(t)
	cfg := Config{Horizon: 5000, Exec: execOverCLO(t), Seed: 42}
	want, err := ReplicateSystemCtx(t.Context(), sets, cfg, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		got, err := ReplicateSystemCtx(t.Context(), sets, cfg, 20, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: system metrics differ from workers=1", workers)
		}
	}
}

// TestReplicateSystemCoreIndependence pins the semantic payoff of
// partitioned EDF-VD: core 0's mode switches never degrade core 1's LC
// service, because each core runs its own DES.
func TestReplicateSystemCoreIndependence(t *testing.T) {
	sets := systemSets(t)
	ms, err := ReplicateSystemCtx(t.Context(), sets, Config{Horizon: 5000, Exec: execOverCLO(t), Seed: 42}, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	switched := 0
	for _, m := range ms {
		if m.Cores[0].ModeSwitches > 0 {
			switched++
		}
		if m.Cores[1].ModeSwitches != 0 {
			t.Fatalf("core 1 switched (%d) without overruns", m.Cores[1].ModeSwitches)
		}
		if rate := m.Cores[1].LCServiceRate(); rate != 1 {
			t.Fatalf("core 1 LC service %g, want 1 (isolated from core 0)", rate)
		}
		if m.HCMisses() != 0 {
			t.Fatalf("HC deadline missed: %d", m.HCMisses())
		}
	}
	if switched == 0 {
		t.Fatal("core 0 never switched; the overrun distribution is miscalibrated")
	}
}

// TestReplicateSystemIdleAndLCOnlyCores: nil entries are idle cores with
// zero metrics, and an LC-only core runs plain EDF at X = 1 instead of
// tripping the EDF-VD factor validation.
func TestReplicateSystemIdleAndLCOnlyCores(t *testing.T) {
	lcOnly, err := mc.NewTaskSet([]mc.Task{
		{ID: 5, Crit: mc.LC, CLO: 10, CHI: 10, Period: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	sets := []*mc.TaskSet{nil, lcOnly}
	ms, err := ReplicateSystemCtx(t.Context(), sets, Config{Horizon: 1000, Seed: 1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Cores[0] != (Metrics{}) {
			t.Errorf("idle core 0 has metrics %+v", m.Cores[0])
		}
		if m.Cores[1].LCReleased == 0 || m.Cores[1].LCServiceRate() != 1 {
			t.Errorf("LC-only core: %+v", m.Cores[1])
		}
	}
	if _, err := ReplicateSystemCtx(t.Context(), []*mc.TaskSet{nil, nil}, Config{Horizon: 1000}, 1, 0); err == nil {
		t.Error("all-idle system must error")
	}
	if _, err := ReplicateSystemCtx(t.Context(), nil, Config{Horizon: 1000}, 1, 0); err == nil {
		t.Error("empty system must error")
	}
	if _, err := ReplicateSystemCtx(t.Context(), sets, Config{Horizon: 1000}, 0, 0); err == nil {
		t.Error("0 runs must error")
	}
}

func TestSummarizeSystem(t *testing.T) {
	sets := systemSets(t)
	ms, err := ReplicateSystemCtx(t.Context(), sets, Config{Horizon: 5000, Exec: execOverCLO(t), Seed: 42}, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeSystem(ms)
	if s.Runs != 50 {
		t.Errorf("Runs = %d, want 50", s.Runs)
	}
	if s.SwitchProb <= 0 || s.SwitchProb > 1 {
		t.Errorf("SwitchProb = %g out of (0, 1]", s.SwitchProb)
	}
	if s.TotalHCMisses != 0 {
		t.Errorf("TotalHCMisses = %d", s.TotalHCMisses)
	}
	if s.MeanLCServiceRate <= 0 || s.MeanLCServiceRate > 1 {
		t.Errorf("MeanLCServiceRate = %g", s.MeanLCServiceRate)
	}
	// Cross-check one aggregate by hand.
	var switches float64
	for _, m := range ms {
		switches += float64(m.ModeSwitches())
	}
	if math.Abs(s.MeanModeSwitches-switches/50) > 1e-12 {
		t.Errorf("MeanModeSwitches = %g, want %g", s.MeanModeSwitches, switches/50)
	}
	if zero := SummarizeSystem(nil); zero.Runs != 0 || zero.SwitchProb != 0 {
		t.Errorf("empty summary = %+v", zero)
	}
}
