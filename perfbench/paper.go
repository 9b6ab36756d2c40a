package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"chebymc/internal/dist"
	"chebymc/internal/edfvd"
	"chebymc/internal/experiment"
	"chebymc/internal/fit"
	"chebymc/internal/ga"
	"chebymc/internal/ipet"
	"chebymc/internal/mc"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
	"chebymc/internal/trace"
	"chebymc/internal/vmcpu"
)

// Streams the benchmark derives its inputs under, one per input family,
// so a workload's inputs depend on nothing but the seed.
const (
	streamTraces int64 = iota + 101
	streamPaperSets
	streamAxesSets
	streamServe
)

// paperSize scales sweep-paper.
type paperSize struct {
	// samples is the trace length per Table I app; qsort-10000, whose
	// average instance is ~10⁶ operations, takes bigSamples.
	samples, bigSamples int
	// us are the taskgen.Mixed utilisation bounds; setsPerU sets each.
	us       []float64
	setsPerU int
	// runs DES replications of horizon per admitted set.
	runs    int
	horizon float64
}

var (
	paperFull  = paperSize{samples: 400, bigSamples: 40, us: []float64{0.7, 0.9, 1.1, 1.3}, setsPerU: 80, runs: 16, horizon: 20000}
	paperSmoke = paperSize{samples: 20, bigSamples: 2, us: []float64{0.8, 1.2}, setsPerU: 3, runs: 4, horizon: 5000}
)

// paperGA is mcexp's Fig. 4/5 budget (population 40, 60 generations).
var paperGA = policy.ChebyshevGA{Config: ga.Config{PopSize: 40, Generations: 60}}

// checkNs are the n levels Theorem 1 is checked at on every trace.
var checkNs = []float64{1, 2, 3, 4}

func runSweepPaper(ctx context.Context, opt options) (*outcome, error) {
	return runSweep(ctx, opt, "sweep-paper", setupPaper)
}

// setupPaper generates the task sets; the trace inputs are drawn inside
// trace.Collect from per-app streams.
func setupPaper(seed int64, smoke bool) (sweepJob, error) {
	sz := paperFull
	if smoke {
		sz = paperSmoke
	}
	apps := experiment.BenchApps()
	var sets []*mc.TaskSet
	var gaRoots, simSeeds []int64
	for ui, u := range sz.us {
		for s := 0; s < sz.setsPerU; s++ {
			r := rng.New(seed, streamPaperSets, int64(ui), int64(s))
			ts, err := taskgen.Mixed(r, taskgen.Config{}, u)
			if err != nil {
				return nil, err
			}
			sets = append(sets, ts)
			gaRoots = append(gaRoots, r.Int63())
			simSeeds = append(simSeeds, r.Int63())
		}
	}
	costs := vmcpu.DefaultCosts()

	// appOut and setOut are one item's outputs.
	type appOut struct {
		prof    mc.Profile
		wcet    float64
		fits    []float64
		samples int
		fails   []string
	}
	type setOut struct {
		a         float64 // assignment call latency, s
		ns        []float64
		pms, maxU float64
		an        edfvd.Analysis
		simSum    [6]int
		busy      float64
		hcMisses  int
		fails     []string
	}

	appItem := func(i int, tr *tracer) appOut {
		p := apps[i]
		n := sz.samples
		if p.Name() == "qsort-10000" {
			n = sz.bigSamples
		}
		var o appOut
		tr.push("trace", i)
		t, err := trace.Collect(p, vmcpu.NewMachine(costs, vmcpu.DefaultCache()), n, rng.New(seed, streamTraces, int64(i)))
		tr.pop()
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("trace %s: %v", p.Name(), err))
			return o
		}
		o.samples = n
		tr.push("ipet", i)
		o.wcet, err = ipet.KernelWCET(p, costs)
		tr.pop()
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("ipet %s: %v", p.Name(), err))
		}
		o.prof = t.Profile()
		for _, family := range []func([]float64) (fit.Model, error){
			func(xs []float64) (fit.Model, error) { return fit.FitNormal(xs) },
			func(xs []float64) (fit.Model, error) { return fit.FitLogNormal(xs) },
			func(xs []float64) (fit.Model, error) { return fit.FitGumbel(xs) },
		} {
			tr.push("fit", i)
			m, err := family(t.Samples)
			var ks float64
			if err == nil {
				ks, err = fit.KSStatistic(t.Samples, m)
			}
			tr.pop()
			if err != nil {
				o.fails = append(o.fails, fmt.Sprintf("fit %s: %v", p.Name(), err))
				continue
			}
			o.fits = append(o.fits, m.Quantile(0.999), ks)
		}
		// Output checks: Theorem 1 holds on the measured trace, and the
		// static WCET^pes bounds every measured instance.
		if err := t.CheckBound(stats.Cantelli{}, checkNs); err != nil {
			o.fails = append(o.fails, err.Error())
		}
		if hi := t.Summary().Max; o.wcet < hi {
			o.fails = append(o.fails, fmt.Sprintf("ipet %s: WCET^pes %g below measured %g", p.Name(), o.wcet, hi))
		}
		return o
	}

	setItem := func(ctx context.Context, s, item int, tr *tracer) setOut {
		var o setOut
		ts := sets[s]
		t0 := time.Now()
		tr.push("policy", item)
		a, err := paperGA.AssignCtx(ctx, ts, rand.New(rand.NewSource(gaRoots[s])))
		tr.pop()
		o.a = time.Since(t0).Seconds()
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("policy set %d: %v", s, err))
			return o
		}
		o.ns, o.pms, o.maxU = a.NS, a.PMS, a.MaxULCLO
		tr.push("edfvd", item)
		o.an = edfvd.Schedulable(a.TaskSet)
		tr.pop()
		if !o.an.Schedulable {
			return o
		}
		scfg, err := desConfig(a.TaskSet, sz.horizon, simSeeds[s])
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("set %d: %v", s, err))
			return o
		}
		tr.push("sim", item)
		ms, err := sim.ReplicateBatchCtx(ctx, a.TaskSet, scfg, sz.runs, 1, 0)
		tr.pop()
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("sim set %d: %v", s, err))
			return o
		}
		for _, m := range ms {
			o.simSum[0] += m.HCReleased
			o.simSum[1] += m.LCReleased
			o.simSum[2] += m.HCCompleted
			o.simSum[3] += m.LCCompleted
			o.simSum[4] += m.ModeSwitches
			o.simSum[5] += m.LCDropped
			o.busy += m.BusyTime
			o.hcMisses += m.HCMisses
		}
		if o.hcMisses > 0 {
			o.fails = append(o.fails, fmt.Sprintf("sim set %d: %d HC deadline misses on an Eq. 8-admitted set", s, o.hcMisses))
		}
		return o
	}

	nApps := len(apps)
	job := func(ctx context.Context, workers int, tr *tracer) (*sweepRep, error) {
		type itemOut struct {
			app *appOut
			set *setOut
		}
		t0 := time.Now()
		// The apps go first: qsort-10000 is the longest item, and the
		// pool hands out items in index order.
		outs, durs, err := fanOut(ctx, workers, nApps+len(sets), func(i int) itemOut {
			if i < nApps {
				o := appItem(i, tr)
				return itemOut{app: &o}
			}
			o := setItem(ctx, i-nApps, i, tr)
			return itemOut{set: &o}
		})
		if err != nil {
			return nil, err
		}
		rep := &sweepRep{wall: time.Since(t0), ops: len(outs), layer: map[string]float64{}}
		d := newDigest()
		var samples, admitted, hcMisses, fitCalls int
		for i, o := range outs {
			rep.busy += durs[i]
			if a := o.app; a != nil {
				rep.failures = append(rep.failures, a.fails...)
				samples += a.samples
				fitCalls += 3
				d.f(a.prof.ACET, a.prof.Sigma, a.wcet)
				d.f(a.fits...)
				continue
			}
			s := o.set
			rep.failures = append(rep.failures, s.fails...)
			rep.setLat = append(rep.setLat, durs[i])
			rep.assignLat = append(rep.assignLat, time.Duration(s.a*float64(time.Second)))
			d.f(s.ns...)
			d.f(s.pms, s.maxU, s.an.X, s.busy)
			d.b(s.an.Schedulable)
			d.i(s.simSum[:]...)
			if s.an.Schedulable {
				admitted++
			}
			hcMisses += s.hcMisses
		}
		rep.digest = d.sum()
		rep.layer["trace.samples"] = float64(samples)
		rep.layer["fit.calls"] = float64(fitCalls)
		rep.layer["policy.calls"] = float64(len(sets))
		rep.layer["edfvd.admit_ratio"] = ratio(float64(admitted), float64(len(sets)))
		rep.layer["sim.hc_misses"] = float64(hcMisses)
		zeroMetrics(rep.layer, "dbf.admit_ratio", "dbf.only_admits")
		return rep, nil
	}
	return job, nil
}

// desConfig is the DES configuration every sweep validates an admitted
// set with: truncated-normal HC execution times capped at C^HI, as in
// mcexp's simval and modes scenarios. A set without HC tasks runs plain
// EDF (x = 1).
func desConfig(ts *mc.TaskSet, horizon float64, seed int64) (sim.Config, error) {
	exec := map[int]dist.Dist{}
	for _, t := range ts.Tasks {
		if t.Crit != mc.HC || t.Profile.Sigma <= 0 {
			continue
		}
		d, err := dist.NewTruncNormal(t.Profile.ACET, t.Profile.Sigma, 0, t.CHI)
		if err != nil {
			return sim.Config{}, fmt.Errorf("task %d: %w", t.ID, err)
		}
		exec[t.ID] = d
	}
	cfg := sim.Defaults()
	cfg.Horizon = horizon
	cfg.Exec = exec
	cfg.Seed = seed
	if ts.NumHC() == 0 {
		cfg.X = 1
	}
	return cfg, nil
}
