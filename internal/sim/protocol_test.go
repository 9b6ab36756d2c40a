package sim

// Protocol / release-model axis suite. The contract under test: the
// zero-value axes (SystemLevel + nil release) and their explicit
// spellings (SystemLevel + Periodic{}) are bit-identical to the
// pre-redesign simulator — pinned against the frozen reference across
// the policy×jitter×X matrix, at several worker counts, and through
// ReplicateSystemCtx — while TaskLevel and Sporadic change behaviour in
// the directions the model promises.

import (
	"fmt"
	"strings"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// TestGoldenExplicitAxesMatrix re-runs the golden matrix with the axes
// spelled out: Protocol: SystemLevel plus Release: Periodic{} must stay
// bit-identical to the frozen pre-redesign reference (refRun ignores
// both fields, so passing means the explicit spelling changes nothing).
func TestGoldenExplicitAxesMatrix(t *testing.T) {
	uni, err := dist.NewUniform(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for setName, ts := range goldenSets(t) {
		exec := map[int]dist.Dist{}
		jitter := map[int]dist.Dist{}
		for i, task := range ts.Tasks {
			hi := task.CHI
			if task.Crit == mc.LC {
				hi = task.CLO
			}
			d, err := dist.NewTruncNormal(0.9*task.CLO, 0.25*task.CLO, 0, 1.2*hi)
			if err != nil {
				t.Fatal(err)
			}
			exec[task.ID] = d
			if i%2 == 0 {
				jitter[task.ID] = uni
			}
		}
		for _, pol := range []Policy{DropAll, Degrade} {
			for _, x := range []float64{0, 0.9} {
				if x == 0 && setName == "all-LC" {
					continue
				}
				for seed := int64(1); seed <= 2; seed++ {
					cfg := Config{
						Horizon:   30000,
						Policy:    pol,
						Exec:      exec,
						Jitter:    jitter,
						X:         x,
						Seed:      seed,
						MaxEvents: 1 << 20,
						Protocol:  SystemLevel,
						Release:   Periodic{},
					}
					name := fmt.Sprintf("%s/%v/x=%g/seed=%d", setName, pol, x, seed)
					t.Run(name, func(t *testing.T) {
						assertGoldenEqual(t, ts, cfg)
					})
				}
			}
		}
	}
}

// TestExplicitAxesBatchWidths pins the explicit zero axes through the
// replication path at several worker counts: results must match the
// zero-value configuration computed by fresh per-run simulators.
func TestExplicitAxesBatchWidths(t *testing.T) {
	ts, cfg := benchSet(t, 12)
	cfg.Jitter = nil
	cfg.Seed = 99
	const runs = 24
	want := independentRuns(t, ts, cfg, runs)
	explicit := cfg
	explicit.Protocol = SystemLevel
	explicit.Release = Periodic{}
	for _, workers := range []int{1, 3, runs} {
		got, err := ReplicateCtx(t.Context(), ts, explicit, runs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d run %d diverges:\n got  %+v\n want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestExplicitAxesSystemReplay pins the explicit zero axes through the
// multicore replay: per-core metrics must match the zero-value Config.
func TestExplicitAxesSystemReplay(t *testing.T) {
	ts1, cfg := benchSet(t, 6)
	ts2, _ := benchSet(t, 9)
	cfg.Seed = 5
	want, err := ReplicateSystemCtx(t.Context(), []*mc.TaskSet{ts1, ts2}, cfg, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	explicit := cfg
	explicit.Protocol = SystemLevel
	explicit.Release = Periodic{}
	got, err := ReplicateSystemCtx(t.Context(), []*mc.TaskSet{ts1, ts2}, explicit, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for c := range got[i].Cores {
			if got[i].Cores[c] != want[i].Cores[c] {
				t.Fatalf("run %d core %d diverges", i, c)
			}
		}
	}
}

// protocolSet builds a four-task set where HC task 1 (T=100) interferes
// with the long-period LC task 3 (T=150) but not the short-period LC
// task 4 (T=40), and HC task 2 never overruns — the shape every
// task-level semantics test below reads against.
func protocolSet(t *testing.T) (*mc.TaskSet, Config) {
	t.Helper()
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 10, CHI: 40, Period: 100, Profile: mc.Profile{ACET: 12, Sigma: 3}},
		{ID: 2, Crit: mc.HC, CLO: 30, CHI: 60, Period: 200, Profile: mc.Profile{ACET: 20, Sigma: 2}},
		{ID: 3, Crit: mc.LC, CLO: 20, CHI: 20, Period: 150},
		{ID: 4, Crit: mc.LC, CLO: 6, CHI: 6, Period: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 always overruns (deterministic 30 > C^LO 10); task 2 never
	// does; LC tasks run their full budgets.
	cfg := Defaults()
	cfg.Horizon = 3000
	cfg.Exec = map[int]dist.Dist{1: dist.NewDeterministic(30)}
	cfg.Seed = 42
	return ts, cfg
}

func TestTaskLevelScopesDegradationToInterferenceSet(t *testing.T) {
	ts, cfg := protocolSet(t)

	sys := cfg
	sys.Protocol = SystemLevel
	s, err := New(ts, sys)
	if err != nil {
		t.Fatal(err)
	}
	msys := s.Run()

	tl := cfg
	tl.Protocol = TaskLevel
	st, err := New(ts, tl)
	if err != nil {
		t.Fatal(err)
	}
	mtl := st.Run()

	if msys.ModeSwitches == 0 || mtl.ModeSwitches == 0 {
		t.Fatal("scenario must switch modes under both protocols")
	}
	// System-level drops short-period LC task 4 jobs released into HI
	// mode; task-level never touches task 4 — only task 3 (period ≥ 100)
	// is in task 1's interference set.
	short, ok := st.TaskMetricsFor(4)
	if !ok || short.Dropped != 0 {
		t.Errorf("task-level dropped %d jobs of the out-of-set LC task", short.Dropped)
	}
	if short.TimeInHI != 0 {
		t.Errorf("out-of-set LC task accrued TimeInHI %g", short.TimeInHI)
	}
	long, _ := st.TaskMetricsFor(3)
	if long.Dropped == 0 {
		t.Error("in-set LC task must see drops under task-level")
	}
	if long.TimeInHI <= 0 {
		t.Error("in-set LC task must accrue covered time")
	}
	hc, _ := st.TaskMetricsFor(1)
	if hc.TimeInHI <= 0 {
		t.Error("overrunning HC task must accrue group time")
	}
	quiet, _ := st.TaskMetricsFor(2)
	if quiet.TimeInHI != 0 {
		t.Error("non-overrunning HC task must stay in LO")
	}
	if mtl.LCDropped >= msys.LCDropped {
		t.Errorf("task-level dropped %d ≥ system-level %d", mtl.LCDropped, msys.LCDropped)
	}
	if mtl.LCCompleted < msys.LCCompleted {
		t.Errorf("task-level completed %d < system-level %d LC jobs", mtl.LCCompleted, msys.LCCompleted)
	}
	// Histogram consistency: bucket time sums to system degraded time
	// (never more than one group is open here), and the system-level run
	// leaves the histogram untouched.
	var hist float64
	for _, v := range mtl.DegradedGroups {
		hist += v
	}
	if diff := hist - mtl.TimeInHI; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("histogram sums to %g, TimeInHI %g", hist, mtl.TimeInHI)
	}
	if msys.DegradedGroups != ([4]float64{}) {
		t.Errorf("system-level run populated DegradedGroups: %v", msys.DegradedGroups)
	}
}

// TestTaskLevelNeverCompletesFewerLCJobs is the property test from the
// redesign contract: on the same seed the two protocols see identical
// releases and execution draws (draws precede drop decisions), and
// task-level drops a subset of what system-level drops, so it never
// completes fewer LC jobs.
func TestTaskLevelNeverCompletesFewerLCJobs(t *testing.T) {
	for _, n := range []int{6, 12, 20} {
		ts, cfg := benchSet(t, n)
		cfg.Jitter = nil
		cfg.Horizon = 20000
		for seed := int64(1); seed <= 25; seed++ {
			cfg.Seed = seed
			sys := cfg
			sys.Protocol = SystemLevel
			tl := cfg
			tl.Protocol = TaskLevel
			s1, err := New(ts, sys)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := New(ts, tl)
			if err != nil {
				t.Fatal(err)
			}
			msys, mtl := s1.Run(), s2.Run()
			if msys.LCReleased != mtl.LCReleased {
				t.Fatalf("n=%d seed=%d: release streams diverged (%d vs %d)", n, seed, msys.LCReleased, mtl.LCReleased)
			}
			if mtl.LCCompleted < msys.LCCompleted {
				t.Errorf("n=%d seed=%d: task-level completed %d < system-level %d",
					n, seed, mtl.LCCompleted, msys.LCCompleted)
			}
		}
	}
}

func TestSporadicGapsRespectMinimumSeparation(t *testing.T) {
	ts, cfg := protocolSet(t)
	jit, err := dist.NewUniform(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Release = Sporadic{Jitterer: jit}
	cfg.MaxEvents = 1 << 20
	s, err := New(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()

	periodic := cfg
	periodic.Release = Periodic{}
	sp, err := New(ts, periodic)
	if err != nil {
		t.Fatal(err)
	}
	mp := sp.Run()

	// Sporadic gaps are ≥ T with positive jitter, so strictly fewer (or
	// equal) releases fit in the horizon; and per-task release times
	// must be separated by at least the period.
	if tot := m.HCReleased + m.LCReleased; tot >= mp.HCReleased+mp.LCReleased {
		t.Errorf("sporadic released %d, periodic %d — expansion must cost releases", tot, mp.HCReleased+mp.LCReleased)
	}
	last := map[int]float64{}
	periods := map[int]float64{}
	for _, task := range ts.Tasks {
		periods[task.ID] = task.Period
	}
	for _, ev := range s.Events() {
		if ev.Kind != EvRelease {
			continue
		}
		if prev, ok := last[ev.TaskID]; ok {
			if gap := ev.Time - prev; gap < periods[ev.TaskID]-1e-9 {
				t.Fatalf("task %d released after gap %g < period %g", ev.TaskID, gap, periods[ev.TaskID])
			}
		}
		last[ev.TaskID] = ev.Time
	}

	// Determinism: the same seed reproduces the run bit-identically.
	s2, err := New(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 := s2.Run(); m2 != m {
		t.Error("sporadic run not deterministic for a fixed seed")
	}
}

func TestSporadicMinSepValidation(t *testing.T) {
	ts, cfg := protocolSet(t)
	cfg.Release = Sporadic{MinSep: 0.5}
	if _, err := New(ts, cfg); err == nil {
		t.Error("MinSep < 1 must be rejected")
	}
	cfg.Release = Sporadic{MinSep: 1.5}
	if _, err := New(ts, cfg); err != nil {
		t.Errorf("MinSep 1.5 must be accepted: %v", err)
	}
	cfg.Protocol = Protocol(99)
	if _, err := New(ts, cfg); err == nil {
		t.Error("unknown protocol must be rejected")
	}
}

// TestNonDefaultAxesDelegateBitIdentical: task-level and sporadic
// configurations replicate on reused simulators with per-run release
// heaps and must stay bit-identical to fresh per-run simulators at every
// worker count.
func TestNonDefaultAxesDelegateBitIdentical(t *testing.T) {
	ts, cfg := benchSet(t, 10)
	cfg.Jitter = nil
	jit, err := dist.NewUniform(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Config{}
	tl := cfg
	tl.Protocol = TaskLevel
	variants["task-level"] = tl
	sp := cfg
	sp.Release = Sporadic{Jitterer: jit}
	variants["sporadic"] = sp
	both := tl
	both.Release = Sporadic{MinSep: 1.2, Jitterer: jit}
	variants["both"] = both
	const runs = 12
	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			want := independentRuns(t, ts, v, runs)
			for _, workers := range []int{1, 3, runs} {
				got, err := ReplicateCtx(t.Context(), ts, v, runs, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers %d run %d diverges", workers, i)
					}
				}
			}
		})
	}
}

func TestDefaultsFullyPopulated(t *testing.T) {
	d := Defaults()
	if d.Horizon != DefaultHorizon || d.Policy != DropAll || d.DegradeFactor != 0.5 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	if d.Protocol != SystemLevel || !releaseIsPeriodic(d.Release) {
		t.Errorf("axes must default to the zero-value semantics: %+v", d)
	}
	if !releaseIsPeriodic(nil) || releaseIsPeriodic(Sporadic{}) {
		t.Error("releaseIsPeriodic misclassifies")
	}
	if SystemLevel.String() != "system-level" || TaskLevel.String() != "task-level" {
		t.Error("protocol names changed")
	}
	for name, want := range map[string]Protocol{"": SystemLevel, "system-level": SystemLevel, "task-level": TaskLevel} {
		got, err := ProtocolByName(name)
		if err != nil || got != want {
			t.Errorf("ProtocolByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ProtocolByName("bogus"); err == nil {
		t.Error("unknown protocol name must error")
	}
}

// TestTruncNormalExec checks the shared execution-time model: an entry
// for every HC task with σ > 0 and none for LC or σ = 0 tasks, and an
// error naming the task whose ACET lies more than 8σ above C^HI.
func TestTruncNormalExec(t *testing.T) {
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100, Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
		{ID: 2, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100, Profile: mc.Profile{ACET: 15}},
		{ID: 3, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50, Profile: mc.Profile{ACET: 5, Sigma: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := TruncNormalExec(ts)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := exec[1].(dist.TruncNormal)
	if len(exec) != 1 || !ok || d != (dist.TruncNormal{Mu: 15, Sigma: 2.5, Lo: 0, Hi: 60}) {
		t.Fatalf("exec = %+v, want task 1 only as TruncNormal(15, 2.5, 0, 60)", exec)
	}

	far, err := mc.NewTaskSet([]mc.Task{
		{ID: 7, Crit: mc.HC, CLO: 20, CHI: 30, Period: 100, Profile: mc.Profile{ACET: 50, Sigma: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TruncNormalExec(far); err == nil || !strings.Contains(err.Error(), "task 7") {
		t.Fatalf("ACET 10σ above C^HI: err = %v, want an error naming task 7", err)
	}
}
