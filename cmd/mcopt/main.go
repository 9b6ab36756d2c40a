// Command mcopt optimises the optimistic WCETs of one task set: it reads a
// task-set JSON file (see internal/mc), runs the proposed Chebyshev+GA
// scheme (or a uniform-n / λ baseline), prints the assignment report and
// optionally writes the rewritten task set back out.
//
// Usage:
//
//	mcopt -in taskset.json [-policy ga|uniform|lambda] [-n 10] [-lambda 0.25]
//	      [-bound cantelli|chebyshev2|vp|moment4]
//	      [-cores 4] [-heuristic first-fit|best-fit|worst-fit]
//	      [-out optimised.json] [-seed S] [-workers W] [-simulate horizon] [-runs R]
//	      [-http ADDR] [-metrics] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -bound swaps the concentration inequality the scheme optimises and
// reports P_overrun/P_sys^MS under (default: the paper's Cantelli bound).
//
// -workers parallelises the GA's fitness evaluations and the simulator
// replications (default: one per CPU); results are identical for every
// worker count. -runs replicates the -simulate run with independently
// derived seeds and reports the means. -http ADDR serves live /metrics,
// /debug/pprof and /debug/vars for the run's duration; -metrics prints
// the run's final counters as Prometheus-style text on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"chebymc/internal/artifact"
	"chebymc/internal/edfvd"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/multicore"
	"chebymc/internal/obs"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/prof"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
	"chebymc/internal/texttable"
)

func main() {
	var (
		in        = flag.String("in", "", "input task-set JSON (required)")
		polName   = flag.String("policy", "ga", "assignment policy: ga, uniform, lambda")
		n         = flag.Float64("n", 10, "uniform n (policy=uniform)")
		lambda    = flag.Float64("lambda", 0.25, "λ fraction (policy=lambda)")
		bound     = flag.String("bound", "", "concentration bound engine: "+strings.Join(stats.BoundNames(), ", ")+" (default cantelli)")
		cores     = flag.Int("cores", 1, "partition the set onto this many cores, one search per core (1 = single-core paper pipeline)")
		heuristic = flag.String("heuristic", "", "partitioning rule (with -cores > 1): "+strings.Join(partition.HeuristicNames(), ", ")+" (default worst-fit)")
		protocol  = flag.String("protocol", "", "simulator mode-switch protocol (with -simulate): system-level or task-level (default system-level)")
		release   = flag.String("release", "", "simulator release model (with -simulate): periodic or sporadic (default periodic)")
		out       = flag.String("out", "", "write the optimised task set to this JSON file")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", runtime.NumCPU(), "worker goroutines for the GA search and simulation (results are identical for any value)")
		simulate  = flag.Float64("simulate", 0, "also run the EDF-VD simulator for this horizon (0 = skip)")
		runs      = flag.Int("runs", 1, "simulator replications with derived seeds (with -simulate)")
		ciEps     = flag.Float64("ci-eps", 0, "adaptive sampling: stop replicating once the 95% CI half-width on P_sys^MS drops to this (0 = run exactly -runs)")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/pprof and /debug/vars on this address for the run's duration (e.g. :6060; :0 picks a free port)")
		metrics   = flag.Bool("metrics", false, "print the run's final counters as Prometheus-style text on exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	stop, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcopt:", err)
		os.Exit(1)
	}
	if *httpAddr != "" || *metrics {
		obs.SetEnabled(true)
	}
	if *httpAddr != "" {
		srv, serveErr := obs.Serve(*httpAddr, obs.Default, artifact.MetricsHandler(obs.Default))
		if serveErr != nil {
			fmt.Fprintln(os.Stderr, "mcopt:", serveErr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mcopt: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	runErr := run(ctx, *in, *polName, *n, *lambda, *bound, *cores, *heuristic, *protocol, *release, *out, *seed, *workers, *simulate, *runs, *ciEps)
	if *metrics && runErr == nil {
		fmt.Print(artifact.MetricsText(obs.Default.Snapshot()))
	}
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mcopt:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, in, polName string, n, lambda float64, boundName string, cores int, heurName, protoName, relName, out string, seed int64, workers int, horizon float64, runs int, ciEps float64) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	bound, err := stats.BoundByName(boundName)
	if err != nil {
		return err
	}
	proto, err := sim.ProtocolByName(protoName)
	if err != nil {
		return err
	}
	relModel, err := sim.ReleaseByName(relName)
	if err != nil {
		return err
	}
	if cores < 1 {
		return fmt.Errorf("-cores %d must be ≥ 1", cores)
	}
	heur, err := partition.HeuristicByName(heurName)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	ts, err := mc.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}

	var pol policy.Policy
	switch polName {
	case "ga":
		cfg := ga.Defaults()
		cfg.Workers = workers
		pol = policy.ChebyshevGA{Config: cfg, Bound: bound}
	case "uniform":
		pol = policy.ChebyshevUniform{N: n, Bound: bound}
	case "lambda":
		pol = policy.LambdaFixed{Lambda: lambda, Bound: bound}
	default:
		return fmt.Errorf("unknown policy %q", polName)
	}

	if cores > 1 {
		return runMulticore(ctx, ts, pol, cores, heur, proto, relModel, out, seed, workers, horizon, runs)
	}

	r := rand.New(rand.NewSource(seed))
	a, err := pol.Assign(ts, r)
	if err != nil {
		return err
	}

	tb := texttable.New(
		fmt.Sprintf("Assignment by %s", pol.Name()),
		"task", "crit", "period", "ACET", "sigma", "n", "C^LO", "C^HI", "P_overrun<=",
	)
	i := 0
	for _, t := range a.TaskSet.Tasks {
		if t.Crit != mc.HC {
			continue
		}
		tb.AddRow(
			fmt.Sprintf("%d(%s)", t.ID, t.Name),
			t.Crit.String(),
			fmt.Sprintf("%.4g", t.Period),
			fmt.Sprintf("%.4g", t.Profile.ACET),
			fmt.Sprintf("%.4g", t.Profile.Sigma),
			fmt.Sprintf("%.3g", a.NS[i]),
			fmt.Sprintf("%.4g", t.CLO),
			fmt.Sprintf("%.4g", t.CHI),
			fmt.Sprintf("%.4f", bound.P(a.NS[i])),
		)
		i++
	}
	fmt.Print(tb.String())
	fmt.Printf("\nP_sys^MS <= %.4f   max U_LC^LO = %.4f   objective = %.4f\n",
		a.PMS, a.MaxULCLO, a.Objective)
	an := edfvd.Schedulable(a.TaskSet)
	fmt.Printf("EDF-VD: %s\n", an)

	if horizon > 0 {
		exec, err := sim.TruncNormalExec(a.TaskSet)
		if err != nil {
			return err
		}
		if runs < 1 {
			runs = 1
		}
		cfg := sim.Defaults()
		cfg.Horizon = horizon
		cfg.Exec = exec
		cfg.Seed = seed
		cfg.Protocol = proto
		cfg.Release = relModel
		if ciEps > 0 {
			// Adaptive mode: spend replications only until the mode-switch
			// estimate is pinned to the requested precision.
			res, serr := sim.AdaptiveAlloc(ctx, a.TaskSet, cfg,
				func(m sim.Metrics) bool { return m.ModeSwitches > 0 },
				sim.AdaptiveOptions{Eps: ciEps, MaxRuns: runs, Workers: workers})
			if serr != nil {
				return serr
			}
			fmt.Printf("Simulated %g time units, adaptive: P[mode switch]=%.4f ±%.4f (95%% CI), spent %d of %d runs (saved %d)\n",
				horizon, res.PHat, res.HalfWidth, res.Runs, runs, res.Saved)
		} else {
			ms, serr := sim.ReplicateCtx(ctx, a.TaskSet, cfg, runs, workers)
			if serr != nil {
				return serr
			}
			sum := sim.Summarize(ms)
			fmt.Printf("Simulated %g time units × %d runs: mean switches=%.1f overrun-rate=%.4f HC-misses=%d LC-service=%.3f util=%.3f\n",
				horizon, sum.Runs, sum.MeanModeSwitches, sum.MeanOverrunRate, sum.TotalHCMisses, sum.MeanLCServiceRate, sum.MeanUtilisation)
		}
	}

	if out != "" {
		if err := writeAssignedSet(out, a.TaskSet); err != nil {
			return err
		}
	}
	return nil
}

// runMulticore is the -cores > 1 path: partition, one search per core,
// composed verdicts, and (with -simulate) the per-core DES replication.
func runMulticore(ctx context.Context, ts *mc.TaskSet, pol policy.Policy, cores int, heur partition.Heuristic, proto sim.Protocol, relModel sim.ReleaseModel, out string, seed int64, workers int, horizon float64, runs int) error {
	sys, err := multicore.New(multicore.Config{Cores: cores, Heuristic: heur, Policy: pol, Workers: workers})
	if err != nil {
		return err
	}
	a, err := sys.AssignCtx(ctx, ts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	tb := texttable.New(
		fmt.Sprintf("Assignment by %s on %d cores (%s)", pol.Name(), cores, heur),
		"task", "crit", "core", "period", "ACET", "sigma", "C^LO", "C^HI",
	)
	for _, t := range a.TaskSet.Tasks {
		tb.AddRow(
			fmt.Sprintf("%d(%s)", t.ID, t.Name),
			t.Crit.String(),
			fmt.Sprintf("%d", a.CoreOf[t.ID]),
			fmt.Sprintf("%.4g", t.Period),
			fmt.Sprintf("%.4g", t.Profile.ACET),
			fmt.Sprintf("%.4g", t.Profile.Sigma),
			fmt.Sprintf("%.4g", t.CLO),
			fmt.Sprintf("%.4g", t.CHI),
		)
	}
	fmt.Print(tb.String())

	ct := texttable.New("Per-core composition",
		"core", "tasks", "P^MS", "max U_LC^LO", "objective", "EDF-VD")
	for _, c := range a.Cores {
		label := fmt.Sprintf("%d", len(c.Tasks))
		if c.Empty {
			label = "idle"
		}
		ct.AddRow(
			fmt.Sprintf("%d", c.Core), label,
			fmt.Sprintf("%.4f", c.Assignment.PMS),
			fmt.Sprintf("%.4f", c.Assignment.MaxULCLO),
			fmt.Sprintf("%.4f", c.Assignment.Objective),
			fmt.Sprintf("%v", c.EDFVD.Schedulable),
		)
	}
	fmt.Print("\n" + ct.String())
	fmt.Printf("\nSystem: P_sys^MS <= %.4f   total max U_LC^LO = %.4f   objective = %.4f   schedulable = %v   cores used = %d/%d\n",
		a.PMS, a.MaxULCLO, a.Objective, a.Schedulable, a.CoresUsed(), cores)

	if horizon > 0 {
		exec, err := sim.TruncNormalExec(a.TaskSet)
		if err != nil {
			return err
		}
		if runs < 1 {
			runs = 1
		}
		scfg := sim.Defaults()
		scfg.Horizon = horizon
		scfg.Exec = exec
		scfg.Seed = seed
		scfg.Protocol = proto
		scfg.Release = relModel
		ms, serr := sim.ReplicateSystemCtx(ctx, a.CoreSets(), scfg, runs, workers)
		if serr != nil {
			return serr
		}
		sum := sim.SummarizeSystem(ms)
		fmt.Printf("Simulated %g time units × %d runs × %d cores: P[any switch]=%.4f mean switches=%.1f HC-misses=%d LC-service=%.3f util=%.3f\n",
			horizon, sum.Runs, a.CoresUsed(), sum.SwitchProb, sum.MeanModeSwitches, sum.TotalHCMisses, sum.MeanLCServiceRate, sum.MeanUtilisation)
	}

	if out != "" {
		return writeAssignedSet(out, a.TaskSet)
	}
	return nil
}

// writeAssignedSet writes the optimised task set as JSON.
func writeAssignedSet(out string, ts *mc.TaskSet) error {
	g, err := os.Create(out)
	if err != nil {
		return err
	}
	werr := ts.WriteJSON(g)
	if cerr := g.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote optimised task set to %s\n", out)
	return nil
}
