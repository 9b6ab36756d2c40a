package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"chebymc/internal/dist"
	"chebymc/internal/engine"
	"chebymc/internal/mc"
	"chebymc/internal/mlmc"
	"chebymc/internal/policy"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
	"chebymc/internal/taskgen"
	"chebymc/internal/texttable"
)

// This file holds the beyond-the-paper `simval` scenario: discrete-event
// validation of the Eq. 10 system mode-switch bound. The Fig. 3 sweep
// evaluates Eq. 10 analytically and the bounds sweep checks it against a
// per-round Bernoulli draw; here the claim is checked against the actual
// EDF-VD runtime — internal/sim's event loop, via the batch-lockstep
// replication engine. Each random task set is budgeted by the uniform-n
// policy and simulated over one hyper-round (the horizon is the minimum
// period, so every task releases exactly once at t = 0); the fraction of
// replications in which any HC job overruns its C^LO estimates the true
// P_sys^MS, which the distribution-free prediction must dominate.
//
// The scenario doubles as the adaptive-sampling showcase: with CIEps > 0
// each (point, set) cell replicates only until the Wilson 95% interval
// on its estimate is tight enough, and the table reports how much of the
// fixed budget was never spent. The tolerance enters the checkpoint key
// only when enabled, so default-run checkpoints keep their historical
// keys.

// axisSimVal is the default uniform-n axis: the Fig. 2 range where the
// bound moves from vacuous to tight.
var axisSimVal = []float64{1, 2, 3, 4, 5}

// SimValConfig scales the simval scenario.
type SimValConfig struct {
	// Ns is the uniform-n axis. Default axisSimVal.
	Ns []float64
	// UHCHI is the generated sets' HI-mode HC utilisation. Default 0.7.
	UHCHI float64
	// Sets is the number of random task sets per axis point. Default 50.
	Sets int
	// Runs is the replication budget per set. Default 2000.
	Runs int
	// CIEps is the adaptive stopping tolerance (Wilson 95% half-width);
	// 0 runs the full budget (the checkpoint-stable default).
	CIEps float64
	// Seed seeds generation; Workers bounds sweep parallelism (results
	// are identical for every value).
	Seed    int64
	Workers int
	// Bound selects the concentration engine behind the prediction; nil
	// keeps the paper's Cantelli default.
	Bound stats.Bound
}

func (c SimValConfig) withDefaults() SimValConfig {
	if len(c.Ns) == 0 {
		c.Ns = axisSimVal
	}
	if c.UHCHI == 0 {
		c.UHCHI = 0.7
	}
	if c.Sets == 0 {
		c.Sets = 50
	}
	if c.Runs == 0 {
		c.Runs = 2000
	}
	return c
}

// SimValRow is one axis point's mean outcome over its task sets.
type SimValRow struct {
	N float64
	// PredPMS is the mean Eq. 10 claim; SimPMS the mean simulated
	// mode-switch probability (fraction of replications with ≥ 1 HC
	// overrun in the first hyper-round).
	PredPMS, SimPMS float64
	// MeanRuns / MeanSaved are the mean replications spent and skipped
	// per set; HalfWidth is the mean Wilson half-width at stop.
	MeanRuns, MeanSaved, HalfWidth float64
	// Holds reports SimPMS ≤ PredPMS + Monte-Carlo slack.
	Holds bool
}

// SimVal is the simval scenario result.
type SimVal struct {
	Rows []SimValRow
	cfg  SimValConfig
}

// simValSlack absorbs Monte-Carlo noise in the domination check.
const simValSlack = 0.02

// simValAxis is one point's reduced outcome; exported fields so the
// engine can checkpoint it as JSON.
type simValAxis struct {
	Pred, Sim, Runs, Saved, HW float64
}

// RunSimVal executes the scenario; see the file comment.
func RunSimVal(cfg SimValConfig) (*SimVal, error) {
	return RunSimValCtx(context.Background(), cfg, EngOpts{})
}

// RunSimValCtx is RunSimVal with engine controls (see EngOpts).
func RunSimValCtx(ctx context.Context, cfg SimValConfig, eo EngOpts) (*SimVal, error) {
	cfg = cfg.withDefaults()

	// The tolerance folds into the key only when enabled, keeping every
	// historical (eps-less) checkpoint valid.
	epsKey := ""
	if cfg.CIEps > 0 {
		epsKey = fmt.Sprintf(" eps=%g", cfg.CIEps)
	}
	ecfg := engine.Config{
		Scenario: "simval",
		Seed:     cfg.Seed, Stream: streamSimVal,
		Points: len(cfg.Ns), Sets: cfg.Sets,
		Workers:  cfg.Workers,
		Progress: eo.Progress,
	}
	ck, err := eo.checkpoint("simval", fmt.Sprintf("simval v1 seed=%d sets=%d runs=%d u=%g ns=%v%s%s",
		cfg.Seed, cfg.Sets, cfg.Runs, cfg.UHCHI, cfg.Ns, epsKey, boundKeySuffix(cfg.Bound)))
	if err != nil {
		return nil, err
	}
	ecfg.Checkpoint = ck

	type setOut struct {
		pred, sim, runs, saved, hw float64
	}
	axes, err := engine.Sweep(ctx, ecfg,
		func(point, s int, r *rand.Rand) (setOut, error) {
			n := cfg.Ns[point]
			ts, err := taskgen.HCOnly(r, taskgen.Config{}, cfg.UHCHI)
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: simval n=%g: %w", n, err)
			}
			a, err := policy.ChebyshevUniform{N: n, Bound: cfg.Bound}.Assign(ts, r)
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: simval n=%g: %w", n, err)
			}
			// One hyper-round: horizon = min period, so every task
			// releases exactly once at t = 0 and "any overrun this run"
			// is exactly the Eq. 10 event.
			horizon := a.TaskSet.Tasks[0].Period
			exec := map[int]dist.Dist{}
			for _, t := range a.TaskSet.Tasks {
				if t.Period < horizon {
					horizon = t.Period
				}
				if t.Crit != mc.HC || t.Profile.Sigma <= 0 {
					continue
				}
				// Unimodal execution times capped at C^HI — the same
				// model as the bounds sweep, under which every compared
				// engine's validity precondition holds.
				d, err := dist.NewTruncNormal(t.Profile.ACET, t.Profile.Sigma, 0, t.CHI)
				if err != nil {
					continue
				}
				exec[t.ID] = d
			}
			scfg := sim.Defaults()
			scfg.Horizon = horizon
			scfg.Exec = exec
			scfg.Seed = r.Int63()
			res, err := mlmc.AdaptiveAlloc(ctx, a.TaskSet, scfg, func(m sim.Metrics) bool { return m.Overruns > 0 }, mlmc.AdaptiveOptions{
				Eps:     cfg.CIEps,
				MaxRuns: cfg.Runs,
				Workers: 1, // the sweep already parallelises across items
			})
			if err != nil {
				return setOut{}, fmt.Errorf("experiment: simval n=%g: %w", n, err)
			}
			return setOut{
				pred: a.PMS, sim: res.PHat,
				runs: float64(res.Runs), saved: float64(res.Saved),
				hw: res.HalfWidth,
			}, nil
		},
		func(point int, outs []setOut) (simValAxis, error) {
			var accP, accS, accR, accSv, accHW stats.Online
			for _, o := range outs {
				accP.Add(o.pred)
				accS.Add(o.sim)
				accR.Add(o.runs)
				accSv.Add(o.saved)
				accHW.Add(o.hw)
			}
			return simValAxis{
				Pred: accP.Mean(), Sim: accS.Mean(),
				Runs: accR.Mean(), Saved: accSv.Mean(), HW: accHW.Mean(),
			}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &SimVal{cfg: cfg}
	for i, n := range cfg.Ns {
		a := axes[i]
		res.Rows = append(res.Rows, SimValRow{
			N:       n,
			PredPMS: a.Pred, SimPMS: a.Sim,
			MeanRuns: a.Runs, MeanSaved: a.Saved, HalfWidth: a.HW,
			Holds: a.Sim <= a.Pred+simValSlack,
		})
	}
	return res, nil
}

// PredictionsHold reports whether the simulated mode-switch probability
// stays at or below the claim at every axis point.
func (r *SimVal) PredictionsHold() bool {
	for _, row := range r.Rows {
		if !row.Holds {
			return false
		}
	}
	return len(r.Rows) > 0
}

// SavedFraction reports the fraction of the total replication budget the
// adaptive allocator skipped (0 when adaptive sampling is off).
func (r *SimVal) SavedFraction() float64 {
	spent, saved := 0.0, 0.0
	for _, row := range r.Rows {
		spent += row.MeanRuns
		saved += row.MeanSaved
	}
	if spent+saved == 0 {
		return 0
	}
	return saved / (spent + saved)
}

// Table renders the scenario.
func (r *SimVal) Table() *texttable.Table {
	mode := "fixed"
	if r.cfg.CIEps > 0 {
		mode = fmt.Sprintf("adaptive eps=%g", r.cfg.CIEps)
	}
	tb := texttable.New(
		fmt.Sprintf("DES validation of Eq. 10 (U_HC^HI=%.2f, %d sets, budget %d runs/set, %s)",
			r.cfg.UHCHI, r.cfg.Sets, r.cfg.Runs, mode),
		"n", "P_sys^MS (claim)", "P_sys^MS (DES)", "holds", "mean runs", "mean saved", "mean CI half-width",
	)
	for _, row := range r.Rows {
		tb.AddRow(
			fmt.Sprintf("%g", row.N),
			fmt.Sprintf("%.4f", row.PredPMS),
			fmt.Sprintf("%.4f", row.SimPMS),
			fmt.Sprintf("%v", row.Holds),
			fmt.Sprintf("%.0f", row.MeanRuns),
			fmt.Sprintf("%.0f", row.MeanSaved),
			fmt.Sprintf("%.4f", row.HalfWidth),
		)
	}
	return tb
}
