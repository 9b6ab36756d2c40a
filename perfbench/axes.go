package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"chebymc/internal/core"
	"chebymc/internal/dbf"
	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
	"chebymc/internal/multicore"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
	"chebymc/internal/sim"
	"chebymc/internal/taskgen"
)

// axesSize scales sweep-axes.
type axesSize struct {
	sets int
	// runs replications of each admitted core of the multicore arm and
	// rescueRuns of each admitted set of the rescue arm: the rescue
	// arm's one-core sets release as many jobs as all four cores
	// together, and fewer runs keep its replays from setting the item
	// latency tail.
	runs, rescueRuns int
	horizon          float64
}

var (
	axesFull  = axesSize{sets: 300, runs: 12, rescueRuns: 4, horizon: 20000}
	axesSmoke = axesSize{sets: 4, runs: 2, rescueRuns: 1, horizon: 5000}
)

const (
	// axesUBound and axesCores are mcexp's cores/modes defaults. Spread
	// over 4 cores the GA's budgets pass Eq. 8 on every core and never
	// overrun; the one-core rescue arm is where the demand test decides
	// and HC tasks switch modes.
	axesUBound = 1.5
	axesCores  = 4
)

// axesPolicy is the per-core search of mcexp's cores and modes scenarios.
var axesPolicy = policy.ChebyshevGA{RequireLC: true}

func runSweepAxes(ctx context.Context, opt options) (*outcome, error) {
	return runSweep(ctx, opt, "sweep-axes", setupAxes)
}

// tracedPolicy wraps the per-core policy handed to multicore.System so
// the traced run sees each core's search as a policy span nested in the
// multicore span. The call it makes is the one multicore makes without
// it.
type tracedPolicy struct {
	inner policy.Policy
	tr    *tracer
	item  int
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Assign(ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	return p.AssignCtx(context.Background(), ts, r)
}

func (p tracedPolicy) AssignCtx(ctx context.Context, ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	p.tr.push("policy", p.item)
	defer p.tr.pop()
	return policy.AssignCtx(ctx, p.inner, ts, r)
}

// axesRescueN is the uniform n of the demand-rescue arm, as in mcexp's
// modes scenario: C^LO = ACET + 3σ overruns often enough that HC tasks
// switch modes, and at one core and U_bound 1.5 the demand test admits
// sets Eq. 8 rejects.
const axesRescueN = 3.0

// verdict is Eq. 8's and the demand test's answer for one assignment,
// and the x its replay runs at: 0 lets the simulator take Eq. 8's own
// factor, a demand-only admit runs at the demand test's.
type verdict struct {
	eq8, dbf bool
	x        float64
}

// judge runs Eq. 8 and the demand test on one core's task set and checks
// that the demand test admits whatever Eq. 8 admits.
func judge(ts *mc.TaskSet, item int, tr *tracer) (verdict, string) {
	tr.push("edfvd", item)
	an := edfvd.Schedulable(ts)
	tr.pop()
	tr.push("dbf", item)
	dt := dbf.DemandTest{}.Analyze(ts)
	tr.pop()
	v := verdict{eq8: an.Schedulable, dbf: dt.Schedulable}
	if !v.eq8 {
		v.x = dt.X
	}
	if v.eq8 && !v.dbf {
		return v, "Eq. 8 admits but the demand test rejects"
	}
	return v, ""
}

func setupAxes(seed int64, smoke bool) (sweepJob, error) {
	sz := axesFull
	if smoke {
		sz = axesSmoke
	}
	sets := make([]*mc.TaskSet, sz.sets)
	gaRoots := make([]int64, sz.sets)
	simSeeds := make([]int64, sz.sets)
	for s := range sets {
		r := rng.New(seed, streamAxesSets, int64(s))
		ts, err := taskgen.Mixed(r, taskgen.Config{}, axesUBound)
		if err != nil {
			return nil, err
		}
		sets[s], gaRoots[s], simSeeds[s] = ts, r.Int63(), r.Int63()
	}

	// armOut is one arm's outcome for one set: its verdict (every core
	// admitted) and what its replay saw.
	type armOut struct {
		eq8, dbf bool
		clo, xs  []float64
		simSum   [6]int
		hcMisses int
	}
	type setOut struct {
		a         float64 // multicore assignment call latency, s
		placed    bool
		coresUsed int
		pms, maxU float64
		// multi is the 4-core GA arm, rescue the one-core uniform-n arm.
		multi, rescue armOut
		fails         []string
	}

	// replay runs the DES of one core's admitted set at its verdict's x.
	replay := func(ctx context.Context, o *armOut, ts *mc.TaskSet, x float64, runs int, seed int64, s int, tr *tracer) string {
		scfg, err := desConfig(ts, sz.horizon, seed)
		if err != nil {
			return err.Error()
		}
		if ts.NumHC() > 0 {
			scfg.X = x
		}
		scfg.Protocol = sim.TaskLevel
		scfg.Release = sim.DefaultSporadic()
		tr.push("sim", s)
		ms, err := sim.ReplicateSystemCtx(ctx, []*mc.TaskSet{ts}, scfg, runs, 1)
		tr.pop()
		if err != nil {
			return err.Error()
		}
		misses := 0
		for _, sm := range ms {
			m := sm.Cores[0]
			o.simSum[0] += m.HCReleased
			o.simSum[1] += m.LCReleased
			o.simSum[2] += m.HCCompleted
			o.simSum[3] += m.LCCompleted
			o.simSum[4] += m.ModeSwitches
			o.simSum[5] += m.LCDropped
			misses += sm.HCMisses()
		}
		o.hcMisses += misses
		if misses > 0 {
			return fmt.Sprintf("%d HC deadline misses on an admitted set", misses)
		}
		return ""
	}

	setItem := func(ctx context.Context, s int, tr *tracer) setOut {
		var o setOut
		failf := func(format string, args ...any) {
			o.fails = append(o.fails, fmt.Sprintf("set %d: ", s)+fmt.Sprintf(format, args...))
		}

		// Arm 1: 4-core worst-fit partition, one GA per core, each core
		// judged and, when every core is admitted, replayed at its own x.
		pol := policy.Policy(axesPolicy)
		if tr != nil {
			pol = tracedPolicy{inner: axesPolicy, tr: tr, item: s}
		}
		sys, err := multicore.New(multicore.Config{Cores: axesCores, Heuristic: partition.WorstFit, Policy: pol, Workers: 1})
		if err != nil {
			failf("%v", err)
			return o
		}
		t0 := time.Now()
		tr.push("multicore", s)
		a, err := sys.AssignCtx(ctx, sets[s], rand.New(rand.NewSource(gaRoots[s])))
		tr.pop()
		o.a = time.Since(t0).Seconds()
		var unplaced *multicore.UnplacedError
		switch {
		case errors.As(err, &unplaced):
			// A rejection, not a failure: multicore.partition_rejected
			// counts it.
		case err != nil:
			failf("multicore: %v", err)
		default:
			o.placed = true
			o.pms, o.maxU, o.coresUsed = a.PMS, a.MaxULCLO, a.CoresUsed()
			for _, t := range a.TaskSet.Tasks {
				o.multi.clo = append(o.multi.clo, t.CLO)
			}
			o.multi.eq8, o.multi.dbf = true, true
			var vs []verdict
			var cs []*mc.TaskSet
			for _, c := range a.Cores {
				if c.Empty {
					continue
				}
				v, msg := judge(c.Assignment.TaskSet, s, tr)
				if msg != "" {
					failf("core %d: %s", c.Core, msg)
				}
				o.multi.eq8 = o.multi.eq8 && v.eq8
				o.multi.dbf = o.multi.dbf && v.dbf
				o.multi.xs = append(o.multi.xs, v.x)
				vs, cs = append(vs, v), append(cs, c.Assignment.TaskSet)
			}
			if o.multi.dbf {
				for k, ts := range cs {
					if msg := replay(ctx, &o.multi, ts, vs[k].x, sz.runs, rng.Derive(simSeeds[s], int64(k)), s, tr); msg != "" {
						failf("multicore replay core %d: %s", k, msg)
					}
				}
			}
		}

		// Arm 2: the modes scenario's demand rescue on one core — uniform
		// n budgets, Eq. 8 next to the demand test, and a replay of every
		// admitted set, demand-only admits at the demand test's x.
		tr.push("policy", s)
		ra, err := policy.ChebyshevUniform{N: axesRescueN}.Assign(sets[s], nil)
		tr.pop()
		if err != nil {
			failf("uniform budgets: %v", err)
			return o
		}
		for _, t := range ra.TaskSet.Tasks {
			o.rescue.clo = append(o.rescue.clo, t.CLO)
		}
		v, msg := judge(ra.TaskSet, s, tr)
		if msg != "" {
			failf("one core: %s", msg)
		}
		o.rescue.eq8, o.rescue.dbf, o.rescue.xs = v.eq8, v.dbf, []float64{v.x}
		if v.dbf {
			if msg := replay(ctx, &o.rescue, ra.TaskSet, v.x, sz.rescueRuns, rng.Derive(simSeeds[s], -1), s, tr); msg != "" {
				failf("one-core replay: %s", msg)
			}
		}
		return o
	}

	job := func(ctx context.Context, workers int, tr *tracer) (*sweepRep, error) {
		t0 := time.Now()
		outs, durs, err := fanOut(ctx, workers, len(sets), func(s int) setOut { return setItem(ctx, s, tr) })
		if err != nil {
			return nil, err
		}
		rep := &sweepRep{wall: time.Since(t0), ops: len(outs), layer: map[string]float64{}}
		d := newDigest()
		var calls, verdicts, eq8, admitted, dbfOnly, hcMisses int
		for s, o := range outs {
			rep.busy += durs[s]
			rep.failures = append(rep.failures, o.fails...)
			rep.setLat = append(rep.setLat, durs[s])
			rep.assignLat = append(rep.assignLat, time.Duration(o.a*float64(time.Second)))
			d.b(o.placed)
			d.f(o.pms, o.maxU)
			arms := []armOut{o.rescue}
			if o.placed {
				calls += o.coresUsed
				arms = append(arms, o.multi)
			}
			calls++ // the uniform-n budgets
			for _, arm := range arms {
				d.f(arm.clo...)
				d.f(arm.xs...)
				d.i(arm.simSum[:]...)
				d.b(arm.eq8)
				d.b(arm.dbf)
				verdicts++
				if arm.eq8 {
					eq8++
				}
				if arm.dbf {
					admitted++
				}
				if arm.dbf && !arm.eq8 {
					dbfOnly++
				}
				hcMisses += arm.hcMisses
			}
		}
		rep.digest = d.sum()
		rep.layer["policy.calls"] = float64(calls)
		rep.layer["edfvd.admit_ratio"] = ratio(float64(eq8), float64(verdicts))
		rep.layer["dbf.admit_ratio"] = ratio(float64(admitted), float64(verdicts))
		rep.layer["dbf.only_admits"] = float64(dbfOnly)
		rep.layer["sim.hc_misses"] = float64(hcMisses)
		zeroMetrics(rep.layer, "trace.samples", "fit.calls")
		return rep, nil
	}
	return job, nil
}
