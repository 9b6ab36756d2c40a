package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"chebymc/internal/dbf"
	"chebymc/internal/edfvd"
	"chebymc/internal/engine"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
	"chebymc/internal/texttable"
)

// This file holds the beyond-the-paper `modes` scenario: the mode-switch
// protocol × release-model grid. Each task set is budgeted once by the
// paper's GA scheme, admitted once per release model — Eq. 8 for
// periodic cells, the demand-bound test (a strict superset of Eq. 8) for
// sporadic cells — and then simulated under every protocol with the SAME
// replication seed, so the task-level vs system-level comparison is a
// matched-trajectory one, not a fresh-sampling one. The headline claim
// mirrors internal/sim's per-seed property test at experiment scale:
// task-level degradation never completes fewer LC jobs than the
// system-level drop protocol on the same workload.

// ModesProtocol is one protocol cell of the grid: a drop/degrade policy
// paired with a mode-switch protocol.
type ModesProtocol struct {
	Name     string
	Policy   sim.Policy
	Protocol sim.Protocol
}

// ModesProtocols is the default protocol axis: the paper's system-level
// drop, Liu's system-level degrade (ρ = 0.5), and task-level drop.
func ModesProtocols() []ModesProtocol {
	return []ModesProtocol{
		{Name: "system-drop", Policy: sim.DropAll, Protocol: sim.SystemLevel},
		{Name: "liu-degrade", Policy: sim.Degrade, Protocol: sim.SystemLevel},
		{Name: "task-level", Policy: sim.DropAll, Protocol: sim.TaskLevel},
	}
}

// ModesRelease is one release cell: the runtime arrival model and the
// schedulability test that admits sets under it.
type ModesRelease struct {
	Name  string
	Model sim.ReleaseModel
	// Demand routes admission through dbf.DemandTest — the sporadic
	// cells, where periods are minimum inter-arrival times and the
	// demand-bound test admits strictly more sets than Eq. 8.
	Demand bool
}

// ModesReleases is the default release axis: strictly periodic and the
// default sporadic model (inter-arrival T + U(0, 50)).
func ModesReleases() []ModesRelease {
	return []ModesRelease{
		{Name: "periodic", Model: sim.Periodic{}},
		{Name: "sporadic", Model: sim.DefaultSporadic(), Demand: true},
	}
}

// ModesConfig scales the modes scenario.
type ModesConfig struct {
	// Protocols and Releases are the grid axes. Defaults ModesProtocols()
	// and ModesReleases().
	Protocols []ModesProtocol
	Releases  []ModesRelease
	// UBound is the generated sets' utilisation bound (taskgen.Mixed).
	// Default 1.5 (the cores default): heavy enough that overruns and
	// drops actually happen and that a visible band of sets fails Eq. 8
	// yet passes the demand-bound test on the sporadic column.
	UBound float64
	// Sets is the number of task sets per grid cell. Default 200.
	Sets int
	// Runs is the replication count per admitted set. Default 20.
	Runs int
	// Horizon is the simulated span per replication. Default 20000.
	Horizon float64
	// Seed roots every derived stream; Workers bounds the sweep's
	// goroutines (identical results at every count).
	Seed    int64
	Workers int
	// Bound selects the concentration engine behind the GA's Eq. 10
	// scoring; nil keeps the Cantelli default (and checkpoint keys
	// unchanged).
	Bound stats.Bound
	// GA tunes the budget search; zero fields keep the paper defaults.
	GA ga.Config
}

func (c ModesConfig) withDefaults() ModesConfig {
	if len(c.Protocols) == 0 {
		c.Protocols = ModesProtocols()
	}
	if len(c.Releases) == 0 {
		c.Releases = ModesReleases()
	}
	if c.UBound == 0 {
		c.UBound = 1.5
	}
	if c.Sets == 0 {
		c.Sets = 200
	}
	if c.Runs == 0 {
		c.Runs = 20
	}
	if c.Horizon == 0 {
		c.Horizon = 20000
	}
	return c
}

// modesAxis is one grid cell's per-set outcome. The per-set vectors are
// kept (not just sums) so the task-level vs system-level comparison can
// be made per matched seed, which is where the claim is exact. Exported
// fields so the engine can checkpoint it as JSON.
type modesAxis struct {
	// Admitted marks sets the cell's admission test accepted; DBFOnly
	// the subset only the demand-bound test admitted (sporadic cells).
	Admitted []bool
	DBFOnly  []bool
	// LCComp, LCRel, TimeDeg, Switches are per-run means over the cell's
	// replications, per admitted set (zero where not admitted).
	LCComp   []float64
	LCRel    []float64
	TimeDeg  []float64
	Switches []float64
	// HCMiss totals HC deadline misses over every admitted set and run.
	HCMiss int
}

// ModesResult holds the protocol × release sweep, indexed
// [protocol][release] through the point mapping pi*len(Releases)+ri.
type ModesResult struct {
	Axes []modesAxis
	cfg  ModesConfig
}

func (c ModesConfig) modesPolicy() policy.Policy {
	return policy.ChebyshevGA{Config: c.GA, RequireLC: true, Bound: c.Bound}
}

// modesRescueN is the uniform n the demand-rescue path budgets with —
// the middle of the simval axis, a moderate-overrun operating point.
const modesRescueN = 3.0

// RunModes executes the sweep. Set s draws from the point-independent
// stream rng.New(seed, streamModes, s): every cell sees the same
// workloads and the same GA root, and the replication seed depends only
// on (set, release) — so protocol cells within one release column
// simulate bit-matched workload trajectories.
func RunModes(cfg ModesConfig) (*ModesResult, error) {
	return RunModesCtx(context.Background(), cfg, EngOpts{})
}

// RunModesCtx is RunModes with engine controls (cancellation, progress,
// per-point checkpointing).
func RunModesCtx(ctx context.Context, cfg ModesConfig, eo EngOpts) (*ModesResult, error) {
	cfg = cfg.withDefaults()
	pol := cfg.modesPolicy()
	nr := len(cfg.Releases)

	ecfg := engine.Config{
		Scenario: "modes",
		Seed:     cfg.Seed, Stream: streamModes,
		Points: len(cfg.Protocols) * nr, Sets: cfg.Sets,
		Workers:  cfg.Workers,
		Progress: eo.Progress,
		// Point-independent streams: set s is the same workload in every
		// grid cell.
		RNG: func(point, set int) *rand.Rand {
			return rng.New(cfg.Seed, streamModes, int64(set))
		},
	}
	pNames := make([]string, len(cfg.Protocols))
	for i, p := range cfg.Protocols {
		pNames[i] = p.Name
	}
	rNames := make([]string, nr)
	for i, rm := range cfg.Releases {
		rNames[i] = rm.Name
	}
	ck, err := eo.checkpoint("modes", fmt.Sprintf(
		"modes v1 seed=%d sets=%d runs=%d horizon=%g ub=%g protos=%v rels=%v ga=%d/%d%s",
		cfg.Seed, cfg.Sets, cfg.Runs, cfg.Horizon, cfg.UBound, pNames, rNames,
		cfg.GA.PopSize, cfg.GA.Generations, boundKeySuffix(cfg.Bound)))
	if err != nil {
		return nil, err
	}
	ecfg.Checkpoint = ck

	type setOut struct {
		admitted, dbfOnly                bool
		lcComp, lcRel, timeDeg, switches float64
		hcMiss                           int
	}
	axes, err := engine.Sweep(ctx, ecfg,
		func(point, s int, r *rand.Rand) (setOut, error) {
			proto := cfg.Protocols[point/nr]
			rel := cfg.Releases[point%nr]
			ts, err := taskgen.Mixed(r, taskgen.Config{}, cfg.UBound)
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: modes %s/%s: %w", proto.Name, rel.Name, err)
			}
			// One GA root per set, drawn after generation: every cell
			// budgets from the same root, so admission and budgets are a
			// property of (set, release), never of the protocol under test.
			root := r.Int63()
			a, aerr := policy.AssignCtx(ctx, pol, ts, rand.New(rand.NewSource(root)))
			admitted, dbfOnly, x := aerr == nil, false, 0.0
			var ats *mc.TaskSet
			if admitted {
				ats = a.TaskSet
			} else if rel.Demand {
				// No Eq. 8-feasible GA budget exists. Sporadic admission
				// gets a second chance: re-budget at the uniform rescue n
				// and admit iff the demand-bound test accepts a set Eq. 8
				// still rejects — the strict-superset band.
				ra, rerr := policy.ChebyshevUniform{N: modesRescueN, Bound: cfg.Bound}.
					Assign(ts, rand.New(rand.NewSource(root)))
				if rerr == nil && !edfvd.Schedulable(ra.TaskSet).Schedulable {
					if d := (dbf.DemandTest{}).Analyze(ra.TaskSet); d.Schedulable {
						admitted, dbfOnly, x = true, true, d.X
						ats = ra.TaskSet
					}
				}
			}
			if !admitted {
				return setOut{}, nil
			}
			exec, err := sim.TruncNormalExec(ats)
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: modes: %w", err)
			}
			scfg := sim.Defaults()
			scfg.Horizon = cfg.Horizon
			scfg.Policy = proto.Policy
			scfg.Protocol = proto.Protocol
			scfg.Release = rel.Model
			scfg.Exec = exec
			// Demand-only admits carry the demand test's steady-feasible
			// x; Eq. 8 admits keep the default (Eq. 8's own x).
			scfg.X = x
			// The replication seed depends on (set, release) ONLY: the
			// protocol cells of one release column replay identical
			// release gaps and execution draws, making the LC-completion
			// comparison exact per seed.
			scfg.Seed = rng.Derive(cfg.Seed, streamModes, -1, int64(s), int64(point%nr))
			ms, err := sim.ReplicateCtx(ctx, ats, scfg, cfg.Runs, 1)
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: modes %s/%s: %w", proto.Name, rel.Name, err)
			}
			out := setOut{admitted: true, dbfOnly: dbfOnly}
			for _, m := range ms {
				out.lcComp += float64(m.LCCompleted)
				out.lcRel += float64(m.LCReleased)
				out.timeDeg += m.TimeInHI
				out.switches += float64(m.ModeSwitches)
				out.hcMiss += m.HCMisses
			}
			n := float64(len(ms))
			out.lcComp /= n
			out.lcRel /= n
			out.timeDeg /= n
			out.switches /= n
			return out, nil
		},
		func(point int, outs []setOut) (modesAxis, error) {
			ax := modesAxis{
				Admitted: make([]bool, len(outs)),
				DBFOnly:  make([]bool, len(outs)),
				LCComp:   make([]float64, len(outs)),
				LCRel:    make([]float64, len(outs)),
				TimeDeg:  make([]float64, len(outs)),
				Switches: make([]float64, len(outs)),
			}
			for s, o := range outs {
				if !o.admitted {
					continue
				}
				ax.Admitted[s] = true
				ax.DBFOnly[s] = o.dbfOnly
				ax.LCComp[s] = o.lcComp
				ax.LCRel[s] = o.lcRel
				ax.TimeDeg[s] = o.timeDeg
				ax.Switches[s] = o.switches
				ax.HCMiss += o.hcMiss
			}
			return ax, nil
		})
	if err != nil {
		return nil, err
	}
	return &ModesResult{Axes: axes, cfg: cfg}, nil
}

// axis returns the cell at (protocol pi, release ri).
func (r *ModesResult) axis(pi, ri int) modesAxis {
	return r.Axes[pi*len(r.cfg.Releases)+ri]
}

// Acceptance is the fraction of sets admitted in cell (pi, ri).
func (r *ModesResult) Acceptance(pi, ri int) float64 {
	ax, n := r.axis(pi, ri), 0
	for _, a := range ax.Admitted {
		if a {
			n++
		}
	}
	return float64(n) / float64(len(ax.Admitted))
}

// DBFOnlyAdmits counts the sets of release column ri only the
// demand-bound test admitted (0 for periodic columns).
func (r *ModesResult) DBFOnlyAdmits(ri int) int {
	ax, n := r.axis(0, ri), 0
	for _, d := range ax.DBFOnly {
		if d {
			n++
		}
	}
	return n
}

// cellMeans averages the admitted sets of cell (pi, ri).
func (r *ModesResult) cellMeans(pi, ri int) (lcComp, lcRel, timeDeg, switches float64, n int) {
	ax := r.axis(pi, ri)
	for s, a := range ax.Admitted {
		if !a {
			continue
		}
		n++
		lcComp += ax.LCComp[s]
		lcRel += ax.LCRel[s]
		timeDeg += ax.TimeDeg[s]
		switches += ax.Switches[s]
	}
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	fn := float64(n)
	return lcComp / fn, lcRel / fn, timeDeg / fn, switches / fn, n
}

// protoIndex finds a protocol cell by its sim axes, -1 when absent
// (filtered runs).
func (r *ModesResult) protoIndex(pol sim.Policy, proto sim.Protocol) int {
	for i, p := range r.cfg.Protocols {
		if p.Policy == pol && p.Protocol == proto {
			return i
		}
	}
	return -1
}

// LCCompletionsHold reports the headline claim: in every release column,
// the task-level protocol completes at least as many LC jobs as the
// system-level drop protocol on every matched admitted set — the two
// cells share the replication seed, so this is the per-seed dominance
// internal/sim's property test pins, at experiment scale. Vacuously true
// when a filtered run drops either protocol.
func (r *ModesResult) LCCompletionsHold() bool {
	ti := r.protoIndex(sim.DropAll, sim.TaskLevel)
	si := r.protoIndex(sim.DropAll, sim.SystemLevel)
	if ti < 0 || si < 0 {
		return true
	}
	for ri := range r.cfg.Releases {
		task, sys := r.axis(ti, ri), r.axis(si, ri)
		for s := range task.Admitted {
			if !task.Admitted[s] || !sys.Admitted[s] {
				continue
			}
			if task.LCComp[s] < sys.LCComp[s]-1e-9 {
				return false
			}
		}
	}
	return true
}

// DBFSupersetHolds reports that in every sporadic column the demand test
// admitted every Eq. 8 admit (true by construction — the check guards
// the wiring) and at least one set beyond Eq. 8.
func (r *ModesResult) DBFSupersetHolds() bool {
	any := false
	for ri, rel := range r.cfg.Releases {
		if !rel.Demand {
			continue
		}
		any = true
		if r.DBFOnlyAdmits(ri) == 0 {
			return false
		}
	}
	return any
}

// Table renders one row per grid cell with acceptance and the
// admitted-set means.
func (r *ModesResult) Table() *texttable.Table {
	tb := texttable.New(
		fmt.Sprintf("Mode-switch protocol × release model (%d sets per cell, %d runs × horizon %g, U_bound=%.2f)",
			r.cfg.Sets, r.cfg.Runs, r.cfg.Horizon, r.cfg.UBound),
		"protocol", "release", "accept", "dbf-only", "LC jobs/run", "LC service", "time degraded", "switches/run", "HC misses",
	)
	for pi, p := range r.cfg.Protocols {
		for ri, rel := range r.cfg.Releases {
			lcComp, lcRel, timeDeg, switches, n := r.cellMeans(pi, ri)
			cells := []string{
				p.Name, rel.Name,
				fmt.Sprintf("%.3f", r.Acceptance(pi, ri)),
				fmt.Sprintf("%d", r.DBFOnlyAdmits(ri)),
			}
			if n == 0 {
				cells = append(cells, "-", "-", "-", "-", "-")
			} else {
				service := 0.0
				if lcRel > 0 {
					service = lcComp / lcRel
				}
				cells = append(cells,
					fmt.Sprintf("%.1f", lcComp),
					fmt.Sprintf("%.4f", service),
					fmt.Sprintf("%.1f", timeDeg),
					fmt.Sprintf("%.2f", switches),
					fmt.Sprintf("%d", r.axis(pi, ri).HCMiss))
			}
			tb.AddRow(cells...)
		}
	}
	return tb
}

// Verify checks the rendered claims, for tests.
func (r *ModesResult) Verify() error {
	if !r.LCCompletionsHold() {
		return fmt.Errorf("experiment: modes: task-level completed fewer LC jobs than system-level on a matched seed")
	}
	if !r.DBFSupersetHolds() {
		return fmt.Errorf("experiment: modes: demand-bound admission added nothing beyond Eq. 8")
	}
	return nil
}

// modesProtocolFilter resolves an Options.Protocol selection: empty
// keeps the full grid.
func modesProtocolFilter(name string) ([]ModesProtocol, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, nil
	}
	for _, p := range ModesProtocols() {
		if p.Name == name {
			return []ModesProtocol{p}, nil
		}
	}
	names := make([]string, 0, 3)
	for _, p := range ModesProtocols() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("unknown protocol %q (want %s)", name, strings.Join(names, ", "))
}

// modesReleaseFilter resolves an Options.Release selection: empty keeps
// both columns.
func modesReleaseFilter(name string) ([]ModesRelease, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, nil
	}
	for _, rel := range ModesReleases() {
		if rel.Name == name {
			return []ModesRelease{rel}, nil
		}
	}
	return nil, fmt.Errorf("unknown release model %q (want periodic or sporadic)", name)
}
