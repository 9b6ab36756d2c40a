// Package multicore runs the paper's uniprocessor pipeline on a
// partitioned multiprocessor: a task set is split onto m cores by a
// criticality-aware bin-packing heuristic (internal/partition), each core
// gets its own independent Eq. 13 search, and the per-core verdicts
// compose into a system-wide result.
//
// The composition is where partitioning pays beyond raw capacity: cores
// switch modes independently, so the system mode-switch probability is
//
//	P_sys^MS = 1 − Π_c (1 − P_c^MS)             (Eq. 10 across cores)
//
// with each P_c^MS taken over only that core's HC tasks — and one core's
// overrun degrades only that core's LC tasks (internal/sim's system
// replication mode measures exactly that). The admissible LC load is the
// sum of the per-core Eq. 11/12 capacities; an idle core contributes a
// full processor of LC headroom.
//
// Determinism contract (pinned by the tests in this package):
//
//   - Cores ≤ 1 is a pure passthrough to the configured policy — the
//     same calls on the same *rand.Rand the single-core pipeline makes,
//     so results are bit-identical to policy.AssignCtx at every layer
//     above (experiments, serve, goldens, cache digests).
//   - For m > 1 one root seed is drawn from the caller's generator and
//     each core searches on its own rng.New(root, core) stream through
//     par.MapCtx, so results are bit-identical at any Workers count.
package multicore

import (
	"context"
	"fmt"
	"math/rand"

	"chebymc/internal/core"
	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
	"chebymc/internal/par"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/rng"
)

// Config parameterises a System. The zero value selects the single-core
// paper pipeline with the ChebyshevGA policy.
type Config struct {
	// Cores is the core count m. 0 and 1 select the single-core
	// passthrough, bit-identical to calling the policy directly.
	Cores int
	// Heuristic selects the bin-packing rule for Cores > 1
	// (partition.HeuristicByName resolves flag values).
	Heuristic partition.Heuristic
	// Policy is the per-core assignment policy; nil selects
	// policy.ChebyshevGA with the paper's defaults.
	Policy policy.Policy
	// Workers bounds the goroutines searching cores concurrently; ≤ 0
	// runs one per core. Results are identical for every value.
	Workers int
	// Test overrides the per-core schedulability test the partitioner
	// packs against; nil keeps Eq. 8 (partition.DefaultTest).
	Test partition.Test
}

// System partitions task sets and runs one assignment search per core.
// Create with New; a System is stateless and safe for concurrent use.
type System struct {
	cfg Config
	pol policy.Policy
}

// New validates cfg and builds a System.
func New(cfg Config) (*System, error) {
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("multicore: core count %d must be ≥ 0", cfg.Cores)
	}
	if _, err := partition.HeuristicByName(cfg.Heuristic.String()); err != nil {
		return nil, err
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.ChebyshevGA{}
	}
	return &System{cfg: cfg, pol: pol}, nil
}

// Policy returns the per-core policy the System searches with.
func (s *System) Policy() policy.Policy { return s.pol }

// CoreAssignment is one core's slice of a system Assignment.
type CoreAssignment struct {
	// Core is the core index.
	Core int
	// Tasks lists the IDs placed on this core, in the core set's order.
	// Nil for an empty core.
	Tasks []int
	// Assignment is the core's Eq. 6/13 result. An empty core carries
	// the empty set's assignment — no tasks, P^MS = 0, a full processor
	// of LC headroom (MaxULCLO = 1) — with a nil TaskSet.
	Assignment core.Assignment
	// EDFVD is the core's Eq. 8 verdict. An empty core runs plain EDF
	// and is trivially schedulable with no deadline shrinking (X = 1).
	EDFVD edfvd.Analysis
	// Empty reports that the partitioner placed no task here.
	Empty bool
}

// Assignment composes the per-core results into the system view.
type Assignment struct {
	// Cores holds one entry per core, in core order.
	Cores []CoreAssignment
	// CoreOf maps task ID → core index.
	CoreOf map[int]int
	// TaskSet is the input set, in input order, with every HC task's
	// C^LO rewritten by its core's assignment.
	TaskSet *mc.TaskSet
	// PMS is the system mode-switch probability: Eq. 10 composed across
	// cores, 1 − Π_c (1 − P_c^MS).
	PMS float64
	// MaxULCLO is the total admissible LC utilisation: the sum of the
	// per-core Eq. 11/12 capacities (1 per empty core).
	MaxULCLO float64
	// Objective is the Eq. 13 shape at system scope,
	// (1 − PMS) · MaxULCLO.
	Objective float64
	// Schedulable reports whether every core passes Eq. 8.
	Schedulable bool
}

// CoreSets returns the per-core task sets with optimised budgets, in core
// order (nil entries for empty cores) — the shape internal/sim's system
// replication mode consumes.
func (a *Assignment) CoreSets() []*mc.TaskSet {
	sets := make([]*mc.TaskSet, len(a.Cores))
	for i, c := range a.Cores {
		sets[i] = c.Assignment.TaskSet
	}
	return sets
}

// CoresUsed counts the cores carrying at least one task.
func (a *Assignment) CoresUsed() int {
	n := 0
	for _, c := range a.Cores {
		if !c.Empty {
			n++
		}
	}
	return n
}

// UnplacedError reports a partitioning failure: the heuristic found no
// core that stays schedulable with the task — the multicore analogue of
// an infeasible single-core assignment.
type UnplacedError struct {
	// Cores and Heuristic identify the attempted configuration.
	Cores     int
	Heuristic partition.Heuristic
	// TaskID is the first task no core could take.
	TaskID int
}

// Error implements error.
func (e *UnplacedError) Error() string {
	return fmt.Sprintf("multicore: task %d does not fit on %d cores under %s",
		e.TaskID, e.Cores, e.Heuristic)
}

// AssignCtx partitions ts, runs one policy search per core, and composes
// the system Assignment. With Cores ≤ 1 it is a passthrough: the policy
// sees the same task set and the same generator state the single-core
// pipeline would give it, so the result is bit-identical. For m > 1 it
// draws one root seed from r and derives per-core streams, so the result
// is bit-identical at every Workers count.
func (s *System) AssignCtx(ctx context.Context, ts *mc.TaskSet, r *rand.Rand) (Assignment, error) {
	if s.cfg.Cores <= 1 {
		return s.assignSingle(ctx, ts, r)
	}
	m := s.cfg.Cores
	res, err := partition.Partition(ts, m, s.cfg.Heuristic, s.cfg.Test)
	if err != nil {
		return Assignment{}, err
	}
	if !res.OK {
		obsPartitionRejects.Inc()
		return Assignment{}, &UnplacedError{Cores: m, Heuristic: s.cfg.Heuristic, TaskID: res.FailedTask}
	}
	if err := res.Validate(ts, s.cfg.Test); err != nil {
		return Assignment{}, err
	}

	root := r.Int63()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = m
	}
	type coreOut struct {
		a     core.Assignment
		an    edfvd.Analysis
		empty bool
	}
	outs, err := par.MapCtx(ctx, workers, m, func(c int) (coreOut, error) {
		set := res.Cores[c]
		if set == nil {
			return coreOut{empty: true}, nil
		}
		a, err := policy.AssignCtx(ctx, s.pol, set, rng.New(root, int64(c)))
		if err != nil {
			return coreOut{}, fmt.Errorf("multicore: core %d: %w", c, err)
		}
		return coreOut{a: a, an: edfvd.Schedulable(a.TaskSet)}, nil
	})
	if err != nil {
		return Assignment{}, err
	}

	out := Assignment{
		Cores:       make([]CoreAssignment, m),
		CoreOf:      make(map[int]int, len(ts.Tasks)),
		Schedulable: true,
	}
	for id, c := range res.CoreOf {
		out.CoreOf[id] = c
	}
	cloByID := make(map[int]float64, ts.NumHC())
	noSwitch := 1.0
	for c, o := range outs {
		ca := CoreAssignment{Core: c}
		if o.empty {
			// The empty set's assignment: no HC task can overrun, and
			// the idle core admits a full processor of LC load.
			ca.Empty = true
			ca.Assignment = core.Assignment{MaxULCLO: 1, Objective: 1}
			ca.EDFVD = edfvd.Analysis{Schedulable: true, X: 1, CondLO: true, CondHI: true}
		} else {
			ca.Assignment = o.a
			ca.EDFVD = o.an
			ca.Tasks = make([]int, 0, len(o.a.TaskSet.Tasks))
			for _, t := range o.a.TaskSet.Tasks {
				ca.Tasks = append(ca.Tasks, t.ID)
				if t.Crit == mc.HC {
					cloByID[t.ID] = t.CLO
				}
			}
		}
		noSwitch *= 1 - ca.Assignment.PMS
		out.MaxULCLO += ca.Assignment.MaxULCLO
		if !ca.EDFVD.Schedulable {
			out.Schedulable = false
		}
		out.Cores[c] = ca
	}
	out.PMS = 1 - noSwitch
	out.Objective = core.ObjectiveValue(out.PMS, out.MaxULCLO)

	// Rebuild the input-order task set with the per-core budgets, so the
	// system view round-trips like a single-core Assignment's TaskSet.
	clo := make([]float64, 0, len(cloByID))
	for _, t := range ts.ByCrit(mc.HC) {
		clo = append(clo, cloByID[t.ID])
	}
	merged, err := ts.WithCLO(clo)
	if err != nil {
		return Assignment{}, err
	}
	out.TaskSet = merged

	obsAssignments.Inc()
	obsCoresUsed.Observe(float64(out.CoresUsed()))
	return out, nil
}

// assignSingle is the Cores ≤ 1 passthrough: one core, the caller's
// generator handed to the policy untouched.
func (s *System) assignSingle(ctx context.Context, ts *mc.TaskSet, r *rand.Rand) (Assignment, error) {
	a, err := policy.AssignCtx(ctx, s.pol, ts, r)
	if err != nil {
		return Assignment{}, err
	}
	an := edfvd.Schedulable(a.TaskSet)
	ids := make([]int, 0, len(a.TaskSet.Tasks))
	coreOf := make(map[int]int, len(a.TaskSet.Tasks))
	for _, t := range a.TaskSet.Tasks {
		ids = append(ids, t.ID)
		coreOf[t.ID] = 0
	}
	obsAssignments.Inc()
	obsCoresUsed.Observe(1)
	return Assignment{
		Cores:       []CoreAssignment{{Core: 0, Tasks: ids, Assignment: a, EDFVD: an}},
		CoreOf:      coreOf,
		TaskSet:     a.TaskSet,
		PMS:         a.PMS,
		MaxULCLO:    a.MaxULCLO,
		Objective:   a.Objective,
		Schedulable: an.Schedulable,
	}, nil
}
