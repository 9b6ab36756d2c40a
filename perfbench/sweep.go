package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"chebymc/internal/par"
)

// sweepRep is one rep of a sweep's fixed job.
type sweepRep struct {
	wall time.Duration
	// setLat is each task-set item's latency, assignLat each assignment
	// call's (the cold compute a serve miss also pays).
	setLat, assignLat []time.Duration
	// busy is the summed duration of every work item.
	busy     time.Duration
	digest   uint64
	ops      int
	failures []string
	// layer holds the workload's own per-layer figures (admit ratios,
	// sample counts); they are the same on every rep of one input.
	layer map[string]float64
}

// sweepJob runs the fixed job once on workers goroutines; tr is nil on
// untraced reps and requires workers == 1.
type sweepJob func(ctx context.Context, workers int, tr *tracer) (*sweepRep, error)

// sweepSetup generates a sweep's inputs from the seed.
type sweepSetup func(seed int64, smoke bool) (sweepJob, error)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// minReps is the fewest measured reps a run makes, whatever the budget.
const minReps = 3

// runSweep measures a sweep. The untraced run repeats the job on
// opt.workers goroutines until the budget is spent, after one serial rep
// whose digest every parallel rep must reproduce. The traced run
// alternates untraced and traced serial reps — serial, so the layer
// spans tile the wall clock — and reports the traced rep with the median
// wall.
func runSweep(ctx context.Context, opt options, name string, setup sweepSetup) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	nSetup := setupReps
	if opt.smoke || opt.traced {
		nSetup = 1
	}
	var job sweepJob
	var setupS []float64
	for i := 0; i < nSetup; i++ {
		runtime.GC()
		t0 := time.Now()
		j, err := setup(opt.seed, opt.smoke)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		job = j
	}

	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	serial, err := job(ctx, 1, nil)
	if err != nil {
		return nil, err
	}
	out.absorb(serial)
	check := func(r *sweepRep, workers int) {
		if r.digest != serial.digest {
			out.fail("%s: digest %016x at workers=%d differs from %016x at workers=1", name, r.digest, workers, serial.digest)
		}
	}

	if !opt.traced {
		// Latency percentiles are taken per rep and their median over
		// reps reported, so one rep slowed by a neighbour on a shared
		// machine does not move them.
		var walls, p50, p99, miss, rss []float64
		for len(walls) < minReps || time.Now().Before(deadline) {
			runtime.GC()
			resetPeakRSS()
			r, err := job(ctx, opt.workers, nil)
			if err != nil {
				return nil, err
			}
			out.absorb(r)
			check(r, opt.workers)
			walls = append(walls, r.wall.Seconds())
			p50 = append(p50, quantile(msOf(r.setLat), 0.5))
			p99 = append(p99, quantile(msOf(r.setLat), 0.99))
			miss = append(miss, quantile(msOf(r.assignLat), 0.5))
			rss = append(rss, peakRSSMB())
		}
		m := out.metrics
		m["setup_s"] = median(setupS)
		m["wall_s"] = median(walls)
		m["p50_ms"] = median(p50)
		m["p99_ms"] = median(p99)
		m["miss_p50_ms"] = median(miss)
		m["rss_mb"] = median(rss)
		out.note("digest %s workers=1 %016x workers=%d reps=%d", name, serial.digest, opt.workers, len(walls))
		return out, nil
	}

	// Traced run: untraced/traced serial pairs.
	type tracedRep struct {
		rep    *sweepRep
		led    *ledger
		before counters
		after  counters
	}
	var untraced []*sweepRep
	var untracedRT []rtStats
	var traced []tracedRep
	for len(traced) < minReps || time.Now().Before(deadline) {
		runtime.GC()
		before := readMem()
		r, err := job(ctx, 1, nil)
		if err != nil {
			return nil, err
		}
		untracedRT = append(untracedRT, rtSince(before))
		out.absorb(r)
		check(r, 1)
		untraced = append(untraced, r)

		runtime.GC()
		tr := newTracer()
		c0 := readCounters()
		r, err = job(ctx, 1, tr)
		if err != nil {
			return nil, err
		}
		c1 := readCounters()
		out.absorb(r)
		check(r, 1)
		led, err := tr.ledgerOf(r.wall)
		if err != nil {
			return nil, err
		}
		traced = append(traced, tracedRep{rep: r, led: led, before: c0, after: c1})
	}
	// One parallel rep measures how busy the fan-out keeps its workers.
	runtime.GC()
	pr, err := job(ctx, opt.workers, nil)
	if err != nil {
		return nil, err
	}
	out.absorb(pr)
	check(pr, opt.workers)

	uWalls := make([]float64, len(untraced))
	for i, r := range untraced {
		uWalls[i] = r.wall.Seconds()
	}
	tWalls := make([]float64, len(traced))
	for i, t := range traced {
		tWalls[i] = t.rep.wall.Seconds()
	}
	pick := traced[medianIndex(tWalls)]
	m := out.metrics
	layerMetrics(m, pick.led, untracedRT[medianIndex(uWalls)], median(tWalls), median(uWalls))
	counterMetrics(m, pick.after, pick.before)
	for k, v := range pick.rep.layer {
		m[k] = v
	}
	m["trace.ns_per_sample"] = ratio(m["trace.self_s"]*1e9, m["trace.samples"])
	m["sim.ns_per_job"] = ratio(m["sim.self_s"]*1e9, m["sim.jobs"])
	zeroMetrics(m, serveLayerMetrics...)
	m["par.busy_ratio"] = pr.busy.Seconds() / (pr.wall.Seconds() * float64(opt.workers))
	out.ledger = pick.led
	out.notes = append(out.notes, pick.led.table()...)
	if opt.spansDir != "" {
		path, err := pick.led.writeSpans(opt.spansDir, name, opt.seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		out.note("spans %s (%d spans)", path, len(pick.led.spans))
	}
	out.note("digest %s workers=1 %016x workers=%d traced-reps=%d", name, serial.digest, opt.workers, len(traced))
	return out, nil
}

// absorb counts a rep's operations and failed checks.
func (o *outcome) absorb(r *sweepRep) {
	o.attempted += r.ops
	o.failures = append(o.failures, r.failures...)
}

// counterMetrics reads the program's obs counters over one traced rep.
func counterMetrics(m map[string]float64, after, before counters) {
	d := func(name string) float64 { return after.delta(before, name) }
	evals := d("ga_fitness_evals_total")
	m["ga.fitness_evals"] = evals
	m["ga.generations"] = d("ga_generations_total")
	m["ga.memo_hit_ratio"] = ratio(d("ga_memo_hits_total"), evals)
	m["ga.delta_eval_ratio"] = ratio(d("ga_delta_evals_total"), d("ga_full_evals_total")+d("ga_delta_evals_total"))
	runs := d("sim_runs_total")
	m["sim.runs"] = runs
	m["sim.jobs"] = d("sim_hc_jobs_released_total") + d("sim_lc_jobs_released_total")
	m["sim.lockstep_share"] = ratio(d("sim_batch_runs_total"), runs)
	m["sim.preemptions"] = d("sim_preemptions_total")
	m["sim.mode_switches"] = d("sim_mode_switches_total")
	m["multicore.partition_rejected"] = d("multicore_partition_rejected_total")
	m["multicore.cores_used_mean"] = after.histMeanDelta(before, "multicore_cores_used")
	m["serve.evictions"] = d("serve_cache_evictions_total") + d("serve_l1cache_evictions_total")
	m["serve.flight_shared"] = d("serve_flight_shared_total")
	m["serve.queue_rejected"] = d("serve_queue_rejected_total")
}

// fanOut runs fn over n items on workers goroutines through the
// program's own pool, timing each item.
func fanOut[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, []time.Duration, error) {
	durs := make([]time.Duration, n)
	outs, err := par.MapCtx(ctx, workers, n, func(i int) (T, error) {
		t0 := time.Now()
		v := fn(i)
		durs[i] = time.Since(t0)
		return v, nil
	})
	return outs, durs, err
}

// digest folds a job's outputs into one 64-bit FNV-1a value, so workers=1
// and workers=nproc results can be compared exactly.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) f(vs ...float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) i(vs ...int) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) b(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
