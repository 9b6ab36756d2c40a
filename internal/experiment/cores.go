package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"chebymc/internal/engine"
	"chebymc/internal/ga"
	"chebymc/internal/multicore"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
	"chebymc/internal/texttable"
)

// CoresConfig scales the beyond-the-paper multicore study: the paper's
// task-set generator and per-core Eq. 13 search, swept over the core
// count m for each partitioning heuristic.
type CoresConfig struct {
	// Ms is the core-count axis, in presentation order. Default
	// {1, 2, 4, 8, 16}.
	Ms []int
	// Heuristics are the partitioning rules compared; the last entry is
	// the one the P_sys^MS verdicts and the simulation table use (the
	// default list ends on worst-fit, the load-balancing rule). Default
	// partition.Heuristics().
	Heuristics []partition.Heuristic
	// UBound is the generated sets' utilisation bound (taskgen.Mixed).
	// Default 1.5: heavy enough that a single core rejects most sets —
	// so acceptance visibly grows with m — while some sets stay feasible
	// at every m, keeping the cross-m P_sys^MS comparison populated.
	UBound float64
	// Sets is the number of task sets per axis point. Default 200.
	Sets int
	// Seed roots every derived stream; Workers bounds the sweep's
	// goroutines (identical results at every count).
	Seed    int64
	Workers int
	// Bound selects the concentration inequality behind Eq. 10 scoring;
	// nil keeps the Cantelli default (and checkpoint keys unchanged).
	Bound stats.Bound
	// GA tunes the per-core search; zero fields keep the paper defaults.
	GA ga.Config
	// SimRuns replicates one representative set's partitioned system in
	// the discrete-event simulator (internal/sim's system mode) at every
	// m. Default 100; negative disables the simulation table.
	SimRuns int
	// SimHorizon is the simulated time span per replication. Default
	// 20000.
	SimHorizon float64
}

func (c CoresConfig) withDefaults() CoresConfig {
	if len(c.Ms) == 0 {
		c.Ms = []int{1, 2, 4, 8, 16}
	}
	if len(c.Heuristics) == 0 {
		c.Heuristics = partition.Heuristics()
	}
	if c.UBound == 0 {
		c.UBound = 1.5
	}
	if c.Sets == 0 {
		c.Sets = 200
	}
	if c.SimRuns == 0 {
		c.SimRuns = 100
	}
	if c.SimHorizon == 0 {
		c.SimHorizon = 20000
	}
	return c
}

// coresAxis is one axis point's reduced outcome, per heuristic then per
// set. The per-set vectors (not just sums) are kept so the verdicts can
// compare means over the sets feasible at *every* m — comparing shifting
// feasible populations would mix the partitioning effect with selection.
// Exported fields so the engine can checkpoint it as JSON.
type coresAxis struct {
	// Feasible and PMS are indexed [heuristic][set]; PMS is only
	// meaningful where Feasible is true.
	Feasible [][]bool
	PMS      [][]float64
	// SumMaxU, SumObj and SumUsed accumulate over feasible sets only.
	SumMaxU []float64
	SumObj  []float64
	SumUsed []int
}

// CoresSimPoint is one core count's simulated system behaviour for the
// representative task set.
type CoresSimPoint struct {
	M int
	// PMS is the composed analytic bound (Eq. 10 across cores) for this
	// set's optimised budgets.
	PMS float64
	// SwitchProb is the fraction of replications where any core
	// switched; MeanSwitches the mean summed switch count per run.
	SwitchProb   float64
	MeanSwitches float64
	// LCService and Utilisation are per-run system means.
	LCService   float64
	Utilisation float64
	// HCMisses totals HC deadline misses over all runs and cores.
	HCMisses  int
	CoresUsed int
}

// CoresResult holds the multicore sweep: per-(m, heuristic) acceptance
// and composed Eq. 13 metrics, plus the simulated behaviour of one
// representative set across core counts.
type CoresResult struct {
	Axes []coresAxis
	// Sim is empty when no set is feasible at every m under the last
	// heuristic (or when SimRuns < 0); SimSet is that set's sweep index,
	// -1 when absent.
	Sim    []CoresSimPoint
	SimSet int
	cfg    CoresConfig
}

// coresPolicy is the per-core search the sweep runs: the proposed GA
// scheme, with acceptance gated on the core also scheduling its actual
// LC load (the Fig. 6 configuration).
func (c CoresConfig) coresPolicy() policy.Policy {
	return policy.ChebyshevGA{Config: c.GA, RequireLC: true, Bound: c.Bound}
}

// RunCores executes the sweep. Each set index draws from a
// point-independent stream — rng.New(seed, streamCores, set) — so every
// core count sees the *same* workloads and one root seed per set drives
// correlated per-core GA streams at every m: axis differences measure
// partitioning, not fresh sampling noise.
func RunCores(cfg CoresConfig) (*CoresResult, error) {
	return RunCoresCtx(context.Background(), cfg, EngOpts{})
}

// RunCoresCtx is RunCores with engine controls (cancellation, progress,
// per-point checkpointing).
func RunCoresCtx(ctx context.Context, cfg CoresConfig, eo EngOpts) (*CoresResult, error) {
	cfg = cfg.withDefaults()
	for _, m := range cfg.Ms {
		if m < 1 {
			return nil, fmt.Errorf("experiment: cores: core count %d must be ≥ 1", m)
		}
	}
	pol := cfg.coresPolicy()
	nh := len(cfg.Heuristics)

	type heurOut struct {
		feasible bool
		pms      float64
		maxU     float64
		obj      float64
		used     int
	}
	type setOut []heurOut

	ecfg := engine.Config{
		Scenario: "cores",
		Seed:     cfg.Seed, Stream: streamCores,
		Points: len(cfg.Ms), Sets: cfg.Sets,
		Workers:  cfg.Workers,
		Progress: eo.Progress,
		// Point-independent streams: set s is the same workload at every
		// core count.
		RNG: func(point, set int) *rand.Rand {
			return rng.New(cfg.Seed, streamCores, int64(set))
		},
	}
	names := make([]string, nh)
	for i, h := range cfg.Heuristics {
		names[i] = h.String()
	}
	ck, err := eo.checkpoint("cores", fmt.Sprintf(
		"cores v1 seed=%d sets=%d ms=%v ub=%g heur=%v ga=%d/%d%s",
		cfg.Seed, cfg.Sets, cfg.Ms, cfg.UBound, names,
		cfg.GA.PopSize, cfg.GA.Generations, boundKeySuffix(cfg.Bound)))
	if err != nil {
		return nil, err
	}
	ecfg.Checkpoint = ck

	axes, err := engine.Sweep(ctx, ecfg,
		func(point, s int, r *rand.Rand) (setOut, error) {
			m := cfg.Ms[point]
			ts, err := taskgen.Mixed(r, taskgen.Config{}, cfg.UBound)
			if err != nil {
				return nil, fmt.Errorf("experiment: cores m=%d: %w", m, err)
			}
			// One root per set, drawn after generation: every heuristic
			// and every m searches from the same root, so m=1 rows are
			// identical across heuristics and per-core streams are
			// shared across core counts.
			root := r.Int63()
			out := make(setOut, nh)
			for hi, h := range cfg.Heuristics {
				sys, err := multicore.New(multicore.Config{
					Cores: m, Heuristic: h, Policy: pol, Workers: 1,
				})
				if err != nil {
					return nil, err
				}
				a, err := sys.AssignCtx(ctx, ts, rand.New(rand.NewSource(root)))
				if err != nil {
					// Partition failure or no LC-feasible assignment on
					// some core: the set is rejected at this (m, h).
					continue
				}
				if !a.Schedulable {
					continue
				}
				out[hi] = heurOut{
					feasible: true,
					pms:      a.PMS,
					maxU:     a.MaxULCLO,
					obj:      a.Objective,
					used:     a.CoresUsed(),
				}
			}
			return out, nil
		},
		func(point int, outs []setOut) (coresAxis, error) {
			ax := coresAxis{
				Feasible: make([][]bool, nh),
				PMS:      make([][]float64, nh),
				SumMaxU:  make([]float64, nh),
				SumObj:   make([]float64, nh),
				SumUsed:  make([]int, nh),
			}
			for hi := 0; hi < nh; hi++ {
				ax.Feasible[hi] = make([]bool, len(outs))
				ax.PMS[hi] = make([]float64, len(outs))
			}
			for s, o := range outs {
				for hi, ho := range o {
					if !ho.feasible {
						continue
					}
					ax.Feasible[hi][s] = true
					ax.PMS[hi][s] = ho.pms
					ax.SumMaxU[hi] += ho.maxU
					ax.SumObj[hi] += ho.obj
					ax.SumUsed[hi] += ho.used
				}
			}
			return ax, nil
		})
	if err != nil {
		return nil, err
	}

	res := &CoresResult{Axes: axes, SimSet: -1, cfg: cfg}
	if cfg.SimRuns > 0 {
		if err := res.runSim(ctx); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSim replicates the first set feasible at every m under the last
// heuristic, through internal/sim's system mode: each core runs its own
// DES, so one core's switch leaves the others in LO.
func (r *CoresResult) runSim(ctx context.Context) error {
	cfg := r.cfg
	hi := len(cfg.Heuristics) - 1
	common := r.commonFeasible(hi)
	if len(common) == 0 {
		return nil
	}
	set := common[0]
	r.SimSet = set
	for _, m := range cfg.Ms {
		// Re-derive the sweep's exact stream for this set.
		rr := rng.New(cfg.Seed, streamCores, int64(set))
		ts, err := taskgen.Mixed(rr, taskgen.Config{}, cfg.UBound)
		if err != nil {
			return fmt.Errorf("experiment: cores sim: %w", err)
		}
		root := rr.Int63()
		sys, err := multicore.New(multicore.Config{
			Cores: m, Heuristic: cfg.Heuristics[hi], Policy: cfg.coresPolicy(), Workers: 1,
		})
		if err != nil {
			return err
		}
		a, err := sys.AssignCtx(ctx, ts, rand.New(rand.NewSource(root)))
		if err != nil {
			return fmt.Errorf("experiment: cores sim m=%d: %w", m, err)
		}
		exec, err := sim.TruncNormalExec(a.TaskSet)
		if err != nil {
			return fmt.Errorf("experiment: cores sim: %w", err)
		}
		scfg := sim.Defaults()
		scfg.Horizon = cfg.SimHorizon
		scfg.Exec = exec
		scfg.Seed = rng.Derive(cfg.Seed, streamCores, -1, int64(m))
		ms, err := sim.ReplicateSystemCtx(ctx, a.CoreSets(), scfg, cfg.SimRuns, cfg.Workers)
		if err != nil {
			return fmt.Errorf("experiment: cores sim m=%d: %w", m, err)
		}
		sum := sim.SummarizeSystem(ms)
		r.Sim = append(r.Sim, CoresSimPoint{
			M:            m,
			PMS:          a.PMS,
			SwitchProb:   sum.SwitchProb,
			MeanSwitches: sum.MeanModeSwitches,
			LCService:    sum.MeanLCServiceRate,
			Utilisation:  sum.MeanUtilisation,
			HCMisses:     sum.TotalHCMisses,
			CoresUsed:    a.CoresUsed(),
		})
	}
	return nil
}

// Acceptance is the fraction of sets feasible at axis point mi under
// heuristic hi.
func (r *CoresResult) Acceptance(mi, hi int) float64 {
	n := 0
	for _, f := range r.Axes[mi].Feasible[hi] {
		if f {
			n++
		}
	}
	return float64(n) / float64(len(r.Axes[mi].Feasible[hi]))
}

// commonFeasible lists the set indices feasible at every axis point
// under heuristic hi.
func (r *CoresResult) commonFeasible(hi int) []int {
	if len(r.Axes) == 0 {
		return nil
	}
	var common []int
	for s := range r.Axes[0].Feasible[hi] {
		ok := true
		for _, ax := range r.Axes {
			if !ax.Feasible[hi][s] {
				ok = false
				break
			}
		}
		if ok {
			common = append(common, s)
		}
	}
	return common
}

// meanPMSOver averages axis point mi's P_sys^MS under heuristic hi over
// the given set indices.
func (r *CoresResult) meanPMSOver(mi, hi int, sets []int) float64 {
	if len(sets) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range sets {
		sum += r.Axes[mi].PMS[hi][s]
	}
	return sum / float64(len(sets))
}

// feasibleMeans returns the feasible-set means of (PMS, MaxULCLO,
// objective, cores used) at (mi, hi), for the table.
func (r *CoresResult) feasibleMeans(mi, hi int) (pms, maxU, obj, used float64, n int) {
	ax := r.Axes[mi]
	for s, f := range ax.Feasible[hi] {
		if f {
			n++
			pms += ax.PMS[hi][s]
		}
	}
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	fn := float64(n)
	return pms / fn, ax.SumMaxU[hi] / fn, ax.SumObj[hi] / fn, float64(ax.SumUsed[hi]) / fn, n
}

// AcceptanceGrows reports the first system-level claim: for every
// heuristic, acceptance never drops as cores are added (small tolerance
// for GA sampling noise), and strictly grows from the smallest to the
// largest m unless already saturated at the smallest.
func (r *CoresResult) AcceptanceGrows() bool {
	tol := 0.02 + 2.0/float64(r.cfg.Sets)
	last := len(r.cfg.Ms) - 1
	for hi := range r.cfg.Heuristics {
		prev := 0.0
		for mi := range r.cfg.Ms {
			acc := r.Acceptance(mi, hi)
			if acc < prev-tol {
				return false
			}
			if acc > prev {
				prev = acc
			}
		}
		first := r.Acceptance(0, hi)
		if first < 1-tol && r.Acceptance(last, hi) <= first {
			return false
		}
	}
	return true
}

// PMSImproves reports the headline claim: under the last heuristic
// (worst-fit in the default order), the mean system mode-switch
// probability over the sets feasible at every m strictly improves from
// the smallest to the largest core count, and never worsens along the
// axis beyond sampling tolerance.
func (r *CoresResult) PMSImproves() bool {
	hi := len(r.cfg.Heuristics) - 1
	common := r.commonFeasible(hi)
	if len(common) == 0 {
		return false
	}
	last := len(r.cfg.Ms) - 1
	first, end := r.meanPMSOver(0, hi, common), r.meanPMSOver(last, hi, common)
	if end >= first {
		return false
	}
	prev := first
	for mi := 1; mi <= last; mi++ {
		cur := r.meanPMSOver(mi, hi, common)
		if cur > prev+0.02 {
			return false
		}
		prev = cur
	}
	return true
}

// SimNoHCMisses reports that no replication missed an HC deadline on
// any core at any core count (vacuously false without a sim table).
func (r *CoresResult) SimNoHCMisses() bool {
	if len(r.Sim) == 0 {
		return false
	}
	for _, p := range r.Sim {
		if p.HCMisses != 0 {
			return false
		}
	}
	return true
}

// SimLCServiceHolds reports that the simulated system LC service rate
// does not degrade from the smallest to the largest core count — the
// payoff of switches staying core-local.
func (r *CoresResult) SimLCServiceHolds() bool {
	if len(r.Sim) == 0 {
		return false
	}
	return r.Sim[len(r.Sim)-1].LCService >= r.Sim[0].LCService-5e-3
}

// Table renders one row per (m, heuristic) with acceptance and the
// feasible-set means of the composed metrics.
func (r *CoresResult) Table() *texttable.Table {
	tb := texttable.New(
		fmt.Sprintf("Multicore: partitioned EDF-VD, per-core GA (%d sets per point, U_bound=%.2f)",
			r.cfg.Sets, r.cfg.UBound),
		"m", "heuristic", "accept", "P_sys^MS", "max U_LC^LO", "objective", "cores used",
	)
	for mi, m := range r.cfg.Ms {
		for hi, h := range r.cfg.Heuristics {
			pms, maxU, obj, used, n := r.feasibleMeans(mi, hi)
			cells := []string{
				fmt.Sprintf("%d", m), h.String(),
				fmt.Sprintf("%.3f", r.Acceptance(mi, hi)),
			}
			if n == 0 {
				cells = append(cells, "-", "-", "-", "-")
			} else {
				cells = append(cells,
					fmt.Sprintf("%.4f", pms), fmt.Sprintf("%.4f", maxU),
					fmt.Sprintf("%.4f", obj), fmt.Sprintf("%.2f", used))
			}
			tb.AddRow(cells...)
		}
	}
	return tb
}

// SimTable renders the representative set's simulated system behaviour
// per core count; nil when no common-feasible set exists.
func (r *CoresResult) SimTable() *texttable.Table {
	if len(r.Sim) == 0 {
		return nil
	}
	h := r.cfg.Heuristics[len(r.cfg.Heuristics)-1]
	tb := texttable.New(
		fmt.Sprintf("Multicore DES: set %d under %s (%d runs × horizon %g per m)",
			r.SimSet, h, r.cfg.SimRuns, r.cfg.SimHorizon),
		"m", "P_sys^MS", "P(any switch)", "switches/run", "LC service", "util", "HC misses", "cores used",
	)
	for _, p := range r.Sim {
		tb.AddRow(
			fmt.Sprintf("%d", p.M),
			fmt.Sprintf("%.4f", p.PMS),
			fmt.Sprintf("%.3f", p.SwitchProb),
			fmt.Sprintf("%.2f", p.MeanSwitches),
			fmt.Sprintf("%.4f", p.LCService),
			fmt.Sprintf("%.4f", p.Utilisation),
			fmt.Sprintf("%d", p.HCMisses),
			fmt.Sprintf("%d", p.CoresUsed),
		)
	}
	return tb
}

// Verify checks the rendered claims, for tests.
func (r *CoresResult) Verify() error {
	if !r.AcceptanceGrows() {
		return fmt.Errorf("experiment: cores: acceptance does not grow with m")
	}
	if !r.PMSImproves() {
		return fmt.Errorf("experiment: cores: P_sys^MS does not improve with m")
	}
	return nil
}

// heuristicFilter resolves an Options.Heuristic selection for runCores:
// empty keeps the full default comparison.
func heuristicFilter(name string) ([]partition.Heuristic, error) {
	if strings.TrimSpace(name) == "" {
		return nil, nil
	}
	h, err := partition.HeuristicByName(name)
	if err != nil {
		return nil, err
	}
	return []partition.Heuristic{h}, nil
}
