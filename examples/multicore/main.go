// Multicore: the Chebyshev assignment on a partitioned multiprocessor
// (the direction of Gu et al. [12] in the paper's related work), through
// the first-class internal/multicore pipeline.
//
// A workload far too heavy for one core is partitioned onto m cores by
// each bin-packing heuristic, every core runs its own Eq. 13 GA search,
// and the per-core verdicts compose into the system view: P_sys^MS =
// 1 − Π_c (1 − P_c^MS), the summed LC capacity, and an all-cores Eq. 8
// verdict. The worst-fit system is then replayed in the per-core EDF-VD
// simulator (sim.ReplicateSystemCtx), where one core's mode switch leaves
// every other core in LO.
//
// Run with: go run ./examples/multicore [-cores 4] [-u 2.5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"chebymc/internal/multicore"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/sim"
	"chebymc/internal/taskgen"
	"chebymc/internal/texttable"
)

func main() {
	cores := flag.Int("cores", 4, "number of cores")
	u := flag.Float64("u", 2.5, "workload utilisation bound (U_LC^LO + U_HC^HI)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	ctx := context.Background()

	r := rand.New(rand.NewSource(*seed))
	ts, err := taskgen.Mixed(r, taskgen.Config{}, *u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d tasks (%d HC, %d LC), U_bound=%.2f\n\n",
		len(ts.Tasks), ts.NumHC(), ts.NumLC(), taskgen.UBound(ts))

	// One system assignment per heuristic. The policy is the example's
	// knob: uniform n = 6 keeps the run instant and deterministic; swap
	// in policy.ChebyshevGA{} for the paper's full search.
	pol := policy.ChebyshevUniform{N: 6}
	root := r.Int63()

	tb := texttable.New("Partitioning heuristics",
		"heuristic", "placed", "cores used", "P_sys^MS", "max U_LC^LO", "schedulable")
	var worstFit *multicore.Assignment
	for _, h := range partition.Heuristics() {
		sys, err := multicore.New(multicore.Config{Cores: *cores, Heuristic: h, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		a, err := sys.AssignCtx(ctx, ts, rand.New(rand.NewSource(root)))
		if err != nil {
			// partition.UnplacedError: this heuristic finds no feasible
			// placement — report it and keep comparing the others.
			tb.AddRow(h.String(), err.Error(), "-", "-", "-", "-")
			continue
		}
		tb.AddRow(
			h.String(), "all",
			fmt.Sprintf("%d", a.CoresUsed()),
			fmt.Sprintf("%.4f", a.PMS),
			fmt.Sprintf("%.4f", a.MaxULCLO),
			fmt.Sprintf("%v", a.Schedulable),
		)
		if h == partition.WorstFit {
			worstFit = &a
		}
	}
	fmt.Print(tb.String())

	if worstFit == nil {
		fmt.Println("\nworkload does not fit; raise -cores")
		return
	}

	// Replay the worst-fit system at runtime: every core its own DES over
	// the same horizon, seeds derived per (run, core).
	exec, err := sim.TruncNormalExec(worstFit.TaskSet)
	if err != nil {
		log.Fatal(err)
	}
	scfg := sim.Defaults()
	scfg.Horizon = 200000
	scfg.Exec = exec
	scfg.Seed = *seed
	ms, err := sim.ReplicateSystemCtx(ctx, worstFit.CoreSets(), scfg, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	run := ms[0]

	fmt.Println()
	rt := texttable.New("Per-core runtime (worst-fit, 200k time units)",
		"core", "tasks", "switches", "HC misses", "LC service", "util")
	for _, ca := range worstFit.Cores {
		if ca.Empty {
			continue
		}
		m := run.Cores[ca.Core]
		if m.HCMisses > 0 {
			log.Fatalf("core %d missed HC deadlines", ca.Core)
		}
		rt.AddRow(
			fmt.Sprintf("%d", ca.Core),
			fmt.Sprintf("%d", len(ca.Tasks)),
			fmt.Sprintf("%d", m.ModeSwitches),
			fmt.Sprintf("%d", m.HCMisses),
			fmt.Sprintf("%.3f", m.LCServiceRate()),
			fmt.Sprintf("%.3f", m.Utilisation()),
		)
	}
	fmt.Print(rt.String())
	fmt.Printf("\nSystem: P_sys^MS <= %.4f, LC service %.3f; every core schedulable under Eq. 8; no HC deadline missed at runtime.\n",
		worstFit.PMS, run.LCServiceRate())
}
