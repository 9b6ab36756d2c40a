package sim

import (
	"context"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// BenchmarkRun measures the simulator's throughput on a two-task system
// with stochastic execution times and mode switches (one million time
// units per iteration).
func BenchmarkRun(b *testing.B) {
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Name: "ctl", Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
			Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
		{ID: 2, Name: "log", Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dist.NewTruncNormal(15, 2.5, 0, 60)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(ts, Config{
		Horizon: 1e6,
		Exec:    map[int]dist.Dist{1: d},
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := s.Run()
		if m.HCMisses != 0 {
			b.Fatal("unexpected miss")
		}
	}
}

// benchSet builds a deterministic n-task dual-criticality set (every
// third task HC) with execution-time distributions for every task and
// inter-release jitter on every fifth, sized so the processor is busy
// ~85% of the time in LO mode — a long ready queue that exercises the
// scheduler's per-event data structures.
func benchSet(b testing.TB, n int) (*mc.TaskSet, Config) {
	b.Helper()
	tasks := make([]mc.Task, n)
	exec := make(map[int]dist.Dist, n)
	jitter := make(map[int]dist.Dist)
	for i := 0; i < n; i++ {
		p := 100 + 37*float64(i)
		t := mc.Task{ID: i + 1, Period: p}
		if i%3 == 0 {
			t.Crit = mc.HC
			t.CLO = 0.06 * p
			t.CHI = 0.14 * p
			t.Profile = mc.Profile{ACET: 0.045 * p, Sigma: 0.009 * p}
			d, err := dist.NewTruncNormal(t.Profile.ACET, t.Profile.Sigma, 0, t.CHI)
			if err != nil {
				b.Fatal(err)
			}
			exec[t.ID] = d
		} else {
			t.Crit = mc.LC
			t.CLO = 0.045 * p
			t.CHI = t.CLO
			d, err := dist.NewTruncNormal(0.8*t.CLO, 0.1*t.CLO, 0, t.CLO)
			if err != nil {
				b.Fatal(err)
			}
			exec[t.ID] = d
		}
		if i%5 == 0 {
			j, err := dist.NewUniform(0, 0.1*p)
			if err != nil {
				b.Fatal(err)
			}
			jitter[t.ID] = j
		}
		tasks[i] = t
	}
	ts, err := mc.NewTaskSet(tasks)
	if err != nil {
		b.Fatal(err)
	}
	return ts, Config{
		Horizon: 2e5,
		Exec:    exec,
		Jitter:  jitter,
		Seed:    1,
	}
}

// BenchmarkRun20Tasks measures per-event scheduling cost on a 20-task
// system — the scale where linear scans over the task array and ready
// queue dominate and the indexed heaps pay off.
func BenchmarkRun20Tasks(b *testing.B) {
	ts, cfg := benchSet(b, 20)
	s, err := New(ts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}

// BenchmarkRun50Tasks scales the same workload to 50 tasks.
func BenchmarkRun50Tasks(b *testing.B) {
	ts, cfg := benchSet(b, 50)
	s, err := New(ts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}

// BenchmarkReplicate measures replication throughput on the jitter-free
// 20-task workload, where every run reads the shared periodic release
// table and reuses one simulator. Workers are pinned to 1 so the number
// isolates single-core cost from parallel speed-up.
func BenchmarkReplicate(b *testing.B) {
	const runs = 128
	ts, cfg := benchSet(b, 20)
	cfg.Jitter = nil
	cfg.Horizon = 2e4
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateCtx(ctx, ts, cfg, runs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWithEvents quantifies the event-log overhead.
func BenchmarkRunWithEvents(b *testing.B) {
	ts, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
			Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
		{ID: 2, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dist.NewTruncNormal(15, 2.5, 0, 60)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(ts, Config{
		Horizon:   1e6,
		Exec:      map[int]dist.Dist{1: d},
		Seed:      1,
		MaxEvents: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}

// BenchmarkReplicateSystem measures the multicore replication mode: a
// four-core system, each core its own DES, replicated with per-(run,
// core) derived seeds — the cores-scenario and mcopt -simulate hot path.
func BenchmarkReplicateSystem(b *testing.B) {
	var sets []*mc.TaskSet
	for c := 0; c < 4; c++ {
		ts, err := mc.NewTaskSet([]mc.Task{
			{ID: 2 * c, Crit: mc.HC, CLO: 20, CHI: 60, Period: 100,
				Profile: mc.Profile{ACET: 15, Sigma: 2.5}},
			{ID: 2*c + 1, Crit: mc.LC, CLO: 10, CHI: 10, Period: 50},
		})
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, ts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateSystemCtx(b.Context(), sets, Config{Horizon: 1e4, Seed: 1}, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateTaskLevel measures the task-level protocol on the
// replication hot path. Task-level overruns degrade only the overrunning
// task's interference set, so the simulator tracks per-group mode state;
// this pins the cost of that bookkeeping against the system-level
// numbers above (same workload, jitter stripped for comparability).
func BenchmarkReplicateTaskLevel(b *testing.B) {
	const runs = 128
	ts, cfg := benchSet(b, 20)
	cfg.Jitter = nil
	cfg.Horizon = 2e4
	cfg.Protocol = TaskLevel
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateCtx(ctx, ts, cfg, runs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateSporadic measures the sporadic release model on the
// replication path. A non-periodic release model walks a per-run release
// heap instead of the shared table and adds one gap draw per release, so
// this tracks the price of sporadic workloads end to end.
func BenchmarkReplicateSporadic(b *testing.B) {
	const runs = 128
	ts, cfg := benchSet(b, 20)
	cfg.Jitter = nil
	cfg.Horizon = 2e4
	cfg.Release = DefaultSporadic()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateCtx(ctx, ts, cfg, runs, 1); err != nil {
			b.Fatal(err)
		}
	}
}
