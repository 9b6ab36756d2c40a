package sim

// Replication goldens: FNV-64a digests of every Metrics field returned by
// the replication entry points — ReplicateCtx, ReplicateInto over [0, n)
// and over the suffix [5, n), and ReplicateSystemCtx over a three-core
// partition with an idle core — across protocol × release model × jitter
// × policy on every golden task-set shape, plus the degenerate
// configurations of golden_test.go. Each digest must come out the same at
// workers 1 and 3. The table was recorded before the replication paths
// were consolidated onto one event loop and must never be edited: a
// mismatch means a replication changed.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

var replicateGolden = map[string]uint64{
	"all-LC/system-level/periodic/jitter=false/degrade":       0x321b5f816f160a64,
	"all-LC/system-level/periodic/jitter=false/drop-all":      0x321b5f816f160a64,
	"all-LC/system-level/periodic/jitter=true/degrade":        0xcd04c9f2f507af2b,
	"all-LC/system-level/periodic/jitter=true/drop-all":       0xcd04c9f2f507af2b,
	"all-LC/system-level/sporadic/jitter=false/degrade":       0x8119da858a28698a,
	"all-LC/system-level/sporadic/jitter=false/drop-all":      0x8119da858a28698a,
	"all-LC/system-level/sporadic/jitter=true/degrade":        0xca69ed74151f7ee2,
	"all-LC/system-level/sporadic/jitter=true/drop-all":       0xca69ed74151f7ee2,
	"all-LC/task-level/periodic/jitter=false/degrade":         0x321b5f816f160a64,
	"all-LC/task-level/periodic/jitter=false/drop-all":        0x321b5f816f160a64,
	"all-LC/task-level/periodic/jitter=true/degrade":          0xcd04c9f2f507af2b,
	"all-LC/task-level/periodic/jitter=true/drop-all":         0xcd04c9f2f507af2b,
	"all-LC/task-level/sporadic/jitter=false/degrade":         0x8119da858a28698a,
	"all-LC/task-level/sporadic/jitter=false/drop-all":        0x8119da858a28698a,
	"all-LC/task-level/sporadic/jitter=true/degrade":          0xca69ed74151f7ee2,
	"all-LC/task-level/sporadic/jitter=true/drop-all":         0xca69ed74151f7ee2,
	"degenerate/degrade-factor-custom":                        0xf3b7a6be716127af,
	"degenerate/event-logging":                                0xee3df40099efad5b,
	"degenerate/horizon-cuts-running-job":                     0xef024400b0121dc5,
	"degenerate/horizon-shorter-than-first-period":            0xbc1e800d64dcfcc5,
	"degenerate/no-exec-dists":                                0xa70f449c1581b065,
	"degenerate/twenty-task-bench-config":                     0xa8ed02f32b2d7e9c,
	"degenerate/twenty-task-bench-config-periodic-degrade":    0xd22c0c3555fb221e,
	"grouped/system-level/periodic/jitter=false/degrade":      0x6a7ae1f3c66f7dc6,
	"grouped/system-level/periodic/jitter=false/drop-all":     0x5944bb93ca19d010,
	"grouped/system-level/periodic/jitter=true/degrade":       0x35eedcd6b78855e3,
	"grouped/system-level/periodic/jitter=true/drop-all":      0x2359b8c7301515c4,
	"grouped/system-level/sporadic/jitter=false/degrade":      0x039440299f6d205a,
	"grouped/system-level/sporadic/jitter=false/drop-all":     0x1e3f7a2e0fe11367,
	"grouped/system-level/sporadic/jitter=true/degrade":       0x819c22a57ca69d88,
	"grouped/system-level/sporadic/jitter=true/drop-all":      0x3d63113ddc4f74ad,
	"grouped/task-level/periodic/jitter=false/degrade":        0x26b28cb75b55f052,
	"grouped/task-level/periodic/jitter=false/drop-all":       0x3cce2bc71562dc0d,
	"grouped/task-level/periodic/jitter=true/degrade":         0xa859c1d109d2440a,
	"grouped/task-level/periodic/jitter=true/drop-all":        0xcc8347d6ba1c376a,
	"grouped/task-level/sporadic/jitter=false/degrade":        0x24a6df4ddc3eeec0,
	"grouped/task-level/sporadic/jitter=false/drop-all":       0x868b8cd936c40064,
	"grouped/task-level/sporadic/jitter=true/degrade":         0xc33cb25b1abf3706,
	"grouped/task-level/sporadic/jitter=true/drop-all":        0x9e235f9d42e7bea7,
	"heavy/system-level/periodic/jitter=false/degrade":        0x063f2070c716c58e,
	"heavy/system-level/periodic/jitter=false/drop-all":       0x4ad29c10176efbf3,
	"heavy/system-level/periodic/jitter=true/degrade":         0x27f673d30b1db77b,
	"heavy/system-level/periodic/jitter=true/drop-all":        0x28a9b951a74a4c26,
	"heavy/system-level/sporadic/jitter=false/degrade":        0x2b07295c3cd6fdba,
	"heavy/system-level/sporadic/jitter=false/drop-all":       0xee644b9d6dc68d23,
	"heavy/system-level/sporadic/jitter=true/degrade":         0xd5af838b09cd5679,
	"heavy/system-level/sporadic/jitter=true/drop-all":        0x2fb0ee8544cc40cb,
	"heavy/task-level/periodic/jitter=false/degrade":          0xd1cbe8cb238b2632,
	"heavy/task-level/periodic/jitter=false/drop-all":         0xd1cbe8cb238b2632,
	"heavy/task-level/periodic/jitter=true/degrade":           0x5db255be619b3d76,
	"heavy/task-level/periodic/jitter=true/drop-all":          0x5db255be619b3d76,
	"heavy/task-level/sporadic/jitter=false/degrade":          0xb3ccf5efa10bc520,
	"heavy/task-level/sporadic/jitter=false/drop-all":         0xb3ccf5efa10bc520,
	"heavy/task-level/sporadic/jitter=true/degrade":           0x83882ff64eb4b3b1,
	"heavy/task-level/sporadic/jitter=true/drop-all":          0x83882ff64eb4b3b1,
	"single-task/system-level/periodic/jitter=false/degrade":  0x34c67febcc29d1af,
	"single-task/system-level/periodic/jitter=false/drop-all": 0x34c67febcc29d1af,
	"single-task/system-level/periodic/jitter=true/degrade":   0xe463c10691868f7f,
	"single-task/system-level/periodic/jitter=true/drop-all":  0xe463c10691868f7f,
	"single-task/system-level/sporadic/jitter=false/degrade":  0xf03ee5aad8dc1d33,
	"single-task/system-level/sporadic/jitter=false/drop-all": 0xf03ee5aad8dc1d33,
	"single-task/system-level/sporadic/jitter=true/degrade":   0x1de27b430c0b0745,
	"single-task/system-level/sporadic/jitter=true/drop-all":  0x1de27b430c0b0745,
	"single-task/task-level/periodic/jitter=false/degrade":    0xea8df44480980696,
	"single-task/task-level/periodic/jitter=false/drop-all":   0xea8df44480980696,
	"single-task/task-level/periodic/jitter=true/degrade":     0xd8f1342910c1cbac,
	"single-task/task-level/periodic/jitter=true/drop-all":    0xd8f1342910c1cbac,
	"single-task/task-level/sporadic/jitter=false/degrade":    0x4243c486f187558c,
	"single-task/task-level/sporadic/jitter=false/drop-all":   0x4243c486f187558c,
	"single-task/task-level/sporadic/jitter=true/degrade":     0xc33430959a7a4d77,
	"single-task/task-level/sporadic/jitter=true/drop-all":    0xc33430959a7a4d77,
	"two-task/system-level/periodic/jitter=false/degrade":     0x8fa254a147ba9f84,
	"two-task/system-level/periodic/jitter=false/drop-all":    0x3fd734be6c7c010e,
	"two-task/system-level/periodic/jitter=true/degrade":      0xab554c2f2107c055,
	"two-task/system-level/periodic/jitter=true/drop-all":     0x9ab129d7a2965b94,
	"two-task/system-level/sporadic/jitter=false/degrade":     0x9a67e4379de74425,
	"two-task/system-level/sporadic/jitter=false/drop-all":    0x363b135e16dbc2a8,
	"two-task/system-level/sporadic/jitter=true/degrade":      0x70b06c5361c0074e,
	"two-task/system-level/sporadic/jitter=true/drop-all":     0x8dc37daefe7ed2b1,
	"two-task/task-level/periodic/jitter=false/degrade":       0x15b3b17ba6c1ad6e,
	"two-task/task-level/periodic/jitter=false/drop-all":      0x15b3b17ba6c1ad6e,
	"two-task/task-level/periodic/jitter=true/degrade":        0x3c7187f308de74a1,
	"two-task/task-level/periodic/jitter=true/drop-all":       0x3c7187f308de74a1,
	"two-task/task-level/sporadic/jitter=false/degrade":       0xa621a31f957dff74,
	"two-task/task-level/sporadic/jitter=false/drop-all":      0xa621a31f957dff74,
	"two-task/task-level/sporadic/jitter=true/degrade":        0x3d4ab370e227456a,
	"two-task/task-level/sporadic/jitter=true/drop-all":       0x3d4ab370e227456a,
}

// hashMetrics folds every field of m into h in declaration order.
func hashMetrics(h hash.Hash64, m Metrics) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	f(m.Time)
	for _, v := range []int{m.HCReleased, m.LCReleased, m.HCCompleted, m.LCCompleted,
		m.HCMisses, m.LCMisses, m.LCDropped, m.LCDegraded, m.Overruns, m.ModeSwitches} {
		put(uint64(v))
	}
	f(m.TimeInHI)
	for _, v := range m.DegradedGroups {
		f(v)
	}
	f(m.BusyTime)
}

// replicateDigest runs every replication entry point on one
// configuration at the given worker count and digests the results.
func replicateDigest(t *testing.T, ts *mc.TaskSet, cfg Config, runs, workers int) uint64 {
	t.Helper()
	ctx := context.Background()
	h := fnv.New64a()
	ms, err := ReplicateCtx(ctx, ts, cfg, runs, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		hashMetrics(h, m)
	}
	for _, from := range []int{0, 5} {
		next := from
		err := ReplicateInto(ctx, ts, cfg, from, runs, workers, func(run int, m Metrics) {
			if run != next {
				t.Fatalf("ReplicateInto from=%d: fold got run %d, want %d", from, run, next)
			}
			next++
			hashMetrics(h, m)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sms, err := ReplicateSystemCtx(ctx, []*mc.TaskSet{ts, nil, ts}, cfg, runs, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range sms {
		for _, m := range sm.Cores {
			hashMetrics(h, m)
		}
	}
	return h.Sum64()
}

// replicateGoldenCases enumerates the guarded configurations by name.
func replicateGoldenCases(t *testing.T) map[string]struct {
	ts  *mc.TaskSet
	cfg Config
} {
	t.Helper()
	type tc = struct {
		ts  *mc.TaskSet
		cfg Config
	}
	cases := map[string]tc{}
	uni, err := dist.NewUniform(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	spor, err := dist.NewUniform(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	sets := goldenSets(t)
	// grouped gives every HC task a non-empty task-level interference set
	// (LC tasks with periods at least as long), so the task-level cases
	// open and close real groups.
	grouped, err := mc.NewTaskSet([]mc.Task{
		{ID: 1, Crit: mc.HC, CLO: 20, CHI: 50, Period: 100, Profile: mc.Profile{ACET: 15, Sigma: 3}},
		{ID: 2, Crit: mc.HC, CLO: 15, CHI: 40, Period: 200, Profile: mc.Profile{ACET: 12, Sigma: 3}},
		{ID: 3, Crit: mc.LC, CLO: 30, CHI: 30, Period: 150},
		{ID: 4, Crit: mc.LC, CLO: 20, CHI: 20, Period: 400},
		{ID: 5, Crit: mc.LC, CLO: 10, CHI: 10, Period: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]*mc.TaskSet{"grouped": grouped}
	for name, ts := range sets {
		shapes[name] = ts
	}
	for setName, ts := range shapes {
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
		x := 0.0
		if setName == "all-LC" {
			x = 0.9 // EDF-VD X is undefined without HC tasks
		}
		for _, proto := range []Protocol{SystemLevel, TaskLevel} {
			for _, rel := range []ReleaseModel{nil, Sporadic{MinSep: 1.1, Jitterer: spor}} {
				relName := "periodic"
				if rel != nil {
					relName = "sporadic"
				}
				for _, jit := range []bool{false, true} {
					for _, pol := range []Policy{DropAll, Degrade} {
						cfg := Config{
							Horizon: 10000, Policy: pol, Exec: exec, X: x,
							Seed: 11, Protocol: proto, Release: rel,
						}
						if jit {
							cfg.Jitter = jitter
						}
						name := fmt.Sprintf("%s/%v/%s/jitter=%t/%v", setName, proto, relName, jit, pol)
						cases[name] = tc{ts, cfg}
					}
				}
			}
		}
	}
	heavyExec := map[int]dist.Dist{}
	for _, task := range sets["heavy"].Tasks {
		d, err := dist.NewTruncNormal(0.95*task.CLO, 0.3*task.CLO, 0, task.CHI)
		if err != nil {
			t.Fatal(err)
		}
		heavyExec[task.ID] = d
	}
	cases["degenerate/horizon-shorter-than-first-period"] = tc{sets["two-task"], Config{Horizon: 30, Seed: 1}}
	cases["degenerate/horizon-cuts-running-job"] = tc{sets["two-task"], Config{Horizon: 15, Seed: 1}}
	cases["degenerate/no-exec-dists"] = tc{sets["heavy"], Config{Horizon: 20000, Seed: 4}}
	cases["degenerate/degrade-factor-custom"] = tc{sets["heavy"], Config{
		Horizon: 20000, Policy: Degrade, DegradeFactor: 0.3, Exec: heavyExec, Seed: 5,
	}}
	cases["degenerate/event-logging"] = tc{sets["heavy"], Config{
		Horizon: 20000, Exec: heavyExec, Seed: 6, MaxEvents: 37,
	}}
	ts20, cfg20 := benchSet(t, 20)
	cfg20.Horizon = 20000
	cases["degenerate/twenty-task-bench-config"] = tc{ts20, cfg20}
	cfg20.Jitter = nil
	cfg20.Policy = Degrade
	cases["degenerate/twenty-task-bench-config-periodic-degrade"] = tc{ts20, cfg20}
	return cases
}

// TestReplicateGolden pins the replication entry points to digests
// recorded before the engines were merged, at workers 1 and 3.
func TestReplicateGolden(t *testing.T) {
	const runs = 9
	cases := replicateGoldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var missing strings.Builder
	for _, name := range names {
		c := cases[name]
		got := replicateDigest(t, c.ts, c.cfg, runs, 1)
		if par := replicateDigest(t, c.ts, c.cfg, runs, 3); par != got {
			t.Errorf("%s: workers=3 digest %016x differs from workers=1 %016x", name, par, got)
		}
		want, ok := replicateGolden[name]
		if !ok {
			fmt.Fprintf(&missing, "\t%q: 0x%016x,\n", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %016x, want %016x", name, got, want)
		}
	}
	if missing.Len() > 0 {
		t.Errorf("no recorded digest for:\n%s", missing.String())
	}
}
