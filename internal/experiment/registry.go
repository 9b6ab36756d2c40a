package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"chebymc/internal/artifact"
	"chebymc/internal/ga"
	"chebymc/internal/stats"
)

// Options is the one knob set a driver passes to every scenario: sizing
// (zero fields select each scenario's paper-sized defaults), the seed,
// the worker budget, whether to build plot artefacts, engine controls
// (progress/checkpoint/resume) and a Session for cross-scenario reuse.
type Options struct {
	// Sets overrides the task-set count per sweep point (0 = scenario
	// default). Samples overrides the trace sample count per benchmark
	// (0 = paper default).
	Sets, Samples int
	// Seed roots every derived stream.
	Seed int64
	// Workers bounds each sweep's goroutines; results are identical
	// for every value.
	Workers int
	// Plot builds ASCII-plot artefacts for figure scenarios.
	Plot bool
	// Bound selects the concentration inequality behind every scenario's
	// Eq. 10 scoring (the -bound flag). Nil keeps the paper's Cantelli
	// default, and with it every golden artefact byte for byte.
	Bound stats.Bound
	// CIEps enables adaptive sample allocation in simulating scenarios:
	// each estimate replicates only until its Wilson 95% half-width
	// drops to CIEps (the -ci-eps flag; 0 runs fixed budgets, keeping
	// every historical artefact and checkpoint byte for byte).
	CIEps float64
	// Cores overrides the multicore scenario's core-count axis (the
	// -cores flag; nil keeps the registry default {1, 2, 4, 8, 16}), and
	// Heuristic restricts it to one partitioning rule (the -heuristic
	// flag; empty compares all of them).
	Cores     []int
	Heuristic string
	// Protocol and Release restrict the modes scenario's grid to one
	// mode-switch protocol (-protocol: system-drop, liu-degrade or
	// task-level) and/or one release model (-release: periodic or
	// sporadic). Empty runs the full grid.
	Protocol string
	Release  string
	// Eng carries progress/checkpoint/resume through to the engine.
	Eng EngOpts
	// Session caches shared computation (the trace pass, the Fig. 4/5
	// sweep) across scenarios of one run. Nil runs uncached.
	Session *Session
}

// traceCfg maps the options onto a trace-collection config — the exact
// mapping the pre-registry driver applied.
func (o Options) traceCfg() TraceConfig {
	cfg := TraceConfig{Seed: o.Seed, Workers: o.Workers}
	if o.Samples > 0 {
		cfg.DefaultSamples = o.Samples
	}
	return cfg
}

// session returns the run's session, or a throwaway one.
func (o Options) session() *Session {
	if o.Session != nil {
		return o.Session
	}
	return NewSession()
}

// bound resolves the run's bound selection to a non-nil engine.
func (o Options) bound() stats.Bound {
	if o.Bound == nil {
		return stats.Cantelli{}
	}
	return o.Bound
}

// boundKeySuffix is the checkpoint/session-key fragment for a bound
// selection: empty for the default, so keys written before the bound
// engine existed stay valid and resumable.
func boundKeySuffix(b stats.Bound) string {
	if b == nil || b.Name() == stats.DefaultBoundName {
		return ""
	}
	return " bound=" + b.Name()
}

// Scenario declares one experiment: identity, the default sweep grid,
// and a Run evaluator producing ordered artefacts. The registry is the
// single source of truth for -exp parsing, listing and dispatch — a new
// experiment is one Register call, not driver plumbing.
type Scenario struct {
	// Name is the -exp token; Aliases are accepted equivalents
	// (e.g. fig4 → fig45).
	Name    string
	Aliases []string
	// Description is the one-line summary shown by -exp list.
	Description string
	// AxisLabel and Axis document the default sweep grid ("" label for
	// scenarios that are not grid sweeps). Grid scenarios feed Axis
	// into their config, so the registry entry is authoritative.
	AxisLabel string
	Axis      []float64
	// DefaultSets is the per-point task-set count a zero Options.Sets
	// selects (0 for scenarios without a set sweep).
	DefaultSets int
	// Checkpointed marks scenarios whose sweep persists per-point
	// checkpoints under EngOpts.CheckpointDir.
	Checkpointed bool
	// OnDemand excludes the scenario from "-exp all": it only runs when
	// named explicitly. Beyond-the-paper studies sit here so the golden
	// all-artefact byte layout never moves.
	OnDemand bool
	// Run executes the scenario and returns its artefacts in
	// presentation order.
	Run func(ctx context.Context, o Options) ([]artifact.Artifact, error)
}

// axisUHCHI is the paper's U^HI_HC axis shared by Figs. 3–5.
var axisUHCHI = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// axisFig6 and axisExt are the default utilisation-bound axes of the
// Fig. 6 and extension sweeps.
var (
	axisFig6 = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}
	axisExt  = []float64{0.4, 0.6, 0.8, 1.0, 1.2}
)

// registry lists every scenario in presentation order — the order `-exp
// all` emits, identical to the pre-registry driver's.
var registry = []Scenario{
	{
		Name:        "table1",
		Description: "Table I: ACET vs WCET^pes and overrun % per WCET^opt choice",
		Run:         runTable1,
	},
	{
		Name:        "table2",
		Description: "Table II: effect of n on task overrunning, analysis vs experiment",
		Run:         runTable2,
	},
	{
		Name:        "fig2",
		Description: "Fig. 2: uniform-n sweep on one example task set",
		AxisLabel:   "n",
		Run:         runFig2,
	},
	{
		Name:         "fig3",
		Description:  "Fig. 3: P_sys^MS / max U_LC^LO / objective over U_HC^HI × n",
		AxisLabel:    "U_HC^HI",
		Axis:         axisUHCHI,
		DefaultSets:  1000,
		Checkpointed: true,
		Run:          runFig3,
	},
	{
		Name:         "fig45",
		Aliases:      []string{"fig4", "fig5"},
		Description:  "Figs. 4–5: policy comparison (proposed GA scheme vs λ baselines)",
		AxisLabel:    "U_HC^HI",
		Axis:         axisUHCHI,
		DefaultSets:  1000,
		Checkpointed: true,
		Run:          runFig45,
	},
	{
		Name:        "headline",
		Description: "abstract-level headline numbers derived from the Fig. 4/5 sweep",
		Run:         runHeadline,
	},
	{
		Name:        "ablation",
		Description: "ablation: distribution-free vs fitted budgets; Cantelli vs two-sided bound",
		Run:         runAblation,
	},
	{
		Name:        "convergence",
		Description: "sample-size study: Eq. 6 budget error vs measurement count",
		Run:         runConvergence,
	},
	{
		Name:         "ext",
		Description:  "multi-level (>2 criticality) extension: acceptance and objective",
		AxisLabel:    "U_top",
		Axis:         axisExt,
		DefaultSets:  200,
		Checkpointed: true,
		Run:          runExtension,
	},
	{
		Name:         "fig6",
		Description:  "Fig. 6: acceptance ratio under Baruah's and Liu's tests ± the scheme",
		AxisLabel:    "U_bound",
		Axis:         axisFig6,
		DefaultSets:  1000,
		Checkpointed: true,
		Run:          runFig6,
	},
	{
		Name:         "bounds",
		Description:  "beyond the paper: concentration-bound engines compared (headroom + GA sweep)",
		AxisLabel:    "bound",
		DefaultSets:  200,
		Checkpointed: true,
		OnDemand:     true,
		Run:          runBounds,
	},
	{
		Name:         "simval",
		Description:  "beyond the paper: DES validation of Eq. 10 via the batch simulator (± adaptive sampling)",
		AxisLabel:    "n",
		Axis:         axisSimVal,
		DefaultSets:  50,
		Checkpointed: true,
		OnDemand:     true,
		Run:          runSimVal,
	},
	{
		Name:         "cores",
		Description:  "beyond the paper: partitioned multicore EDF-VD — per-core GA, acceptance and P_sys^MS vs core count",
		AxisLabel:    "m",
		Axis:         []float64{1, 2, 4, 8, 16},
		DefaultSets:  200,
		Checkpointed: true,
		OnDemand:     true,
		Run:          runCores,
	},
	{
		Name:         "modes",
		Description:  "beyond the paper: mode-switch protocol × release model — task-level degradation, sporadic/DBF admission",
		AxisLabel:    "protocol × release",
		DefaultSets:  200,
		Checkpointed: true,
		OnDemand:     true,
		Run:          runModes,
	},
}

// Scenarios returns the registry in presentation order.
func Scenarios() []Scenario { return append([]Scenario(nil), registry...) }

// Names returns every scenario name in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// Resolve expands "all" and aliases, validates every requested name
// against the registry, and returns the selected canonical names.
// Unknown names are an error listing the valid ones — a typo must not
// silently run nothing.
func Resolve(requested []string) (map[string]bool, error) {
	aliases := make(map[string]string)
	valid := make(map[string]bool)
	for _, s := range registry {
		valid[s.Name] = true
		for _, a := range s.Aliases {
			aliases[a] = s.Name
		}
	}
	selected := make(map[string]bool)
	for _, raw := range requested {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if name == "all" {
			for _, s := range registry {
				if !s.OnDemand {
					selected[s.Name] = true
				}
			}
			continue
		}
		if canon, ok := aliases[name]; ok {
			name = canon
		}
		if !valid[name] {
			names := Names()
			sort.Strings(names)
			return nil, fmt.Errorf("unknown experiment %q; valid names: all, %s (aliases: fig4, fig5 → fig45)",
				name, strings.Join(names, ", "))
		}
		selected[name] = true
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments selected; valid names: all, %s", strings.Join(Names(), ", "))
	}
	return selected, nil
}

// ---- scenario evaluators ------------------------------------------------
//
// Each evaluator maps Options onto the experiment's config, runs it
// (through the Session where computation is shared), and packages the
// result as artefacts. The artefact order reproduces the pre-registry
// driver's byte layout exactly — cmd/mcexp's golden suite pins it.

func runTable1(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	traces, bounds, err := o.session().benchTraces(ctx, o.traceCfg())
	if err != nil {
		return nil, err
	}
	res, err := table1From(traces, bounds)
	if err != nil {
		return nil, err
	}
	return []artifact.Artifact{artifact.Table{Name: "table1", Body: res.Table()}}, nil
}

func runTable2(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	traces, _, err := o.session().benchTraces(ctx, o.traceCfg())
	if err != nil {
		return nil, err
	}
	res, err := table2From(traces, o.bound())
	if err != nil {
		return nil, err
	}
	claim := "Theorem 1"
	if name := o.bound().Name(); name != stats.DefaultBoundName {
		claim = name
	}
	return []artifact.Artifact{
		artifact.Table{Name: "table2", Body: res.Table()},
		artifact.Note{Text: fmt.Sprintf("%s bound holds on all measurements: %v\n\n", claim, res.BoundHolds())},
	}, nil
}

func runFig2(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	res, err := RunFig2(Fig2Config{Seed: o.Seed, Bound: o.Bound})
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{artifact.Table{Name: "fig2", Body: res.Table()}}
	if o.Plot {
		s, err := res.Plot()
		if err != nil {
			return nil, err
		}
		arts = append(arts, artifact.Plot{Name: "fig2", Text: s})
	}
	arts = append(arts, artifact.Note{Text: fmt.Sprintf(
		"Fig. 2 optimum: n=%g  P_sys^MS=%.4f  max U_LC^LO=%.4f\n\n",
		res.OptN, res.OptPoint.PMS, res.OptPoint.MaxULCLO)})
	return arts, nil
}

func runFig3(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	cfg := Fig3Config{UHCHIs: axisUHCHI, Seed: o.Seed, Workers: o.Workers, Sets: o.Sets, Bound: o.Bound}
	res, err := RunFig3Ctx(ctx, cfg, o.Eng)
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{artifact.Table{Name: "fig3", Body: res.Table()}}
	if o.Plot {
		s, err := res.Plot()
		if err != nil {
			return nil, err
		}
		arts = append(arts, artifact.Plot{Name: "fig3", Text: s})
	}
	return arts, nil
}

func runFig45(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	res, err := o.session().fig45Result(ctx, o)
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{artifact.Table{Name: "fig45", Body: res.Table()}}
	if o.Plot {
		s, err := res.Plot()
		if err != nil {
			return nil, err
		}
		arts = append(arts, artifact.Plot{Name: "fig45", Text: s})
	}
	return arts, nil
}

func runHeadline(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	res, err := o.session().fig45Result(ctx, o)
	if err != nil {
		return nil, err
	}
	h := res.Headline()
	return []artifact.Artifact{
		artifact.Note{Text: fmt.Sprintf(
			"Headline: utilisation improvement up to %.2f%% (vs %s at U_HC^HI=%.2f); worst-case P_sys^MS %.2f%%\n",
			h.UtilImprovementPct, h.AgainstPolicy, h.AtUHCHI, h.WorstPMSPct)},
		artifact.Note{Text: "Paper:    utilisation improvement up to 85.29%; worst-case P_sys^MS 9.11%\n\n"},
	}, nil
}

func runAblation(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	traces, _, err := o.session().benchTraces(ctx, o.traceCfg())
	if err != nil {
		return nil, err
	}
	ab, err := ablationBoundsFrom(traces, nil, o.bound())
	if err != nil {
		return nil, err
	}
	return []artifact.Artifact{
		artifact.Table{Name: "ablation_bounds", Body: ab.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"Chebyshev budget never violates its claim: %v; some fitted budget violates: %v\n\n",
			ab.ChebyshevNeverViolates(), ab.AnyFitViolates())},
		artifact.Table{Name: "ablation_cantelli", Body: CantelliTable(RunAblationCantelli(nil))},
	}, nil
}

func runConvergence(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	res, err := RunConvergenceCtx(ctx, ConvergenceConfig{Trace: o.traceCfg()})
	if err != nil {
		return nil, err
	}
	return []artifact.Artifact{artifact.Table{Name: "convergence", Body: res.Table()}}, nil
}

func runExtension(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	res, err := RunExtensionCtx(ctx, ExtensionConfig{Seed: o.Seed, Workers: o.Workers, Sets: o.Sets}, o.Eng)
	if err != nil {
		return nil, err
	}
	return []artifact.Artifact{artifact.Table{Name: "extension", Body: res.Table()}}, nil
}

func runFig6(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	cfg := Fig6Config{Seed: o.Seed, Workers: o.Workers, Sets: o.Sets}
	res, err := RunFig6Ctx(ctx, cfg, o.Eng)
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{artifact.Table{Name: "fig6", Body: res.Table()}}
	if o.Plot {
		s, err := res.Plot()
		if err != nil {
			return nil, err
		}
		arts = append(arts, artifact.Plot{Name: "fig6", Text: s})
	}
	return arts, nil
}

func runBounds(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	traces, wcet, err := o.session().benchTraces(ctx, o.traceCfg())
	if err != nil {
		return nil, err
	}
	head, err := BoundsHeadroomFrom(traces, wcet, nil)
	if err != nil {
		return nil, err
	}
	sweep, err := RunBoundsSweepCtx(ctx, BoundsSweepConfig{Seed: o.Seed, Workers: o.Workers, Sets: o.Sets}, o.Eng)
	if err != nil {
		return nil, err
	}
	return []artifact.Artifact{
		artifact.Table{Name: "bounds_headroom", Body: head.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"VP needs a smaller n than Cantelli at every app/target (unimodal gain): %v\n\n",
			head.VPBeatsCantelli())},
		artifact.Table{Name: "bounds_sweep", Body: sweep.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"simulated P_sys^MS stays at or below the prediction for every distribution-free bound: %v\n\n",
			sweep.PredictionsHold())},
	}, nil
}

func runSimVal(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	cfg := SimValConfig{
		Seed: o.Seed, Workers: o.Workers, Sets: o.Sets,
		Bound: o.Bound, CIEps: o.CIEps,
	}
	res, err := RunSimValCtx(ctx, cfg, o.Eng)
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{
		artifact.Table{Name: "simval", Body: res.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"simulated P_sys^MS stays at or below the claim at every n: %v\n\n",
			res.PredictionsHold())},
	}
	if res.SavedFraction() > 0 {
		arts = append(arts, artifact.Note{Text: fmt.Sprintf(
			"adaptive allocation skipped %.1f%% of the replication budget\n\n",
			100*res.SavedFraction())})
	}
	return arts, nil
}

func runCores(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	heur, err := heuristicFilter(o.Heuristic)
	if err != nil {
		return nil, err
	}
	cfg := CoresConfig{
		Ms: o.Cores, Heuristics: heur,
		Seed: o.Seed, Workers: o.Workers, Sets: o.Sets, Bound: o.Bound,
	}
	res, err := RunCoresCtx(ctx, cfg, o.Eng)
	if err != nil {
		return nil, err
	}
	ms := res.cfg.Ms
	ref := res.cfg.Heuristics[len(res.cfg.Heuristics)-1]
	arts := []artifact.Artifact{
		artifact.Table{Name: "cores", Body: res.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"multicore acceptance never drops and grows from m=%d to m=%d for every heuristic: %v\n",
			ms[0], ms[len(ms)-1], res.AcceptanceGrows())},
		artifact.Note{Text: fmt.Sprintf(
			"P_sys^MS (%s, common feasible sets) strictly improves from m=%d to m=%d and never worsens along the axis: %v\n\n",
			ref, ms[0], ms[len(ms)-1], res.PMSImproves())},
	}
	if tb := res.SimTable(); tb != nil {
		arts = append(arts,
			artifact.Table{Name: "cores_sim", Body: tb},
			artifact.Note{Text: fmt.Sprintf(
				"simulated system: no HC deadline miss at any m: %v; LC service does not degrade with cores: %v\n\n",
				res.SimNoHCMisses(), res.SimLCServiceHolds())},
		)
	}
	return arts, nil
}

func runModes(ctx context.Context, o Options) ([]artifact.Artifact, error) {
	protos, err := modesProtocolFilter(o.Protocol)
	if err != nil {
		return nil, err
	}
	rels, err := modesReleaseFilter(o.Release)
	if err != nil {
		return nil, err
	}
	cfg := ModesConfig{
		Protocols: protos, Releases: rels,
		Seed: o.Seed, Workers: o.Workers, Sets: o.Sets,
		Bound: o.Bound,
	}
	res, err := RunModesCtx(ctx, cfg, o.Eng)
	if err != nil {
		return nil, err
	}
	arts := []artifact.Artifact{
		artifact.Table{Name: "modes", Body: res.Table()},
		artifact.Note{Text: fmt.Sprintf(
			"task-level completes at least as many LC jobs as system-level at every grid point: %v\n",
			res.LCCompletionsHold())},
	}
	if anyDemand(res.cfg.Releases) {
		arts = append(arts, artifact.Note{Text: fmt.Sprintf(
			"demand-bound admission accepts every Eq. 8 set plus extras on the sporadic column: %v\n\n",
			res.DBFSupersetHolds())})
	} else {
		arts = append(arts, artifact.Note{Text: "\n"})
	}
	return arts, nil
}

// anyDemand reports whether any release column uses demand-bound
// admission (so the sporadic note only renders when it means something).
func anyDemand(rels []ModesRelease) bool {
	for _, rel := range rels {
		if rel.Demand {
			return true
		}
	}
	return false
}

// fig45Config maps the options onto the Fig. 4/5 sweep config — shared
// by the fig45 and headline evaluators so the Session cache key is
// computed identically.
func fig45Config(o Options) Fig45Config {
	return Fig45Config{Seed: o.Seed, Workers: o.Workers, Sets: o.Sets, GA: ga.Config{}, Bound: o.Bound}
}
