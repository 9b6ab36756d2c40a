// Package objective is the allocation-free evaluation engine for the
// paper's Eq. 13 objective (1 − P^MS_sys) · max(U^LO_LC). It exists so a
// GA fitness call never materialises an assignment: the seed path rebuilt
// a full core.Assignment per genome — TaskSet clone, validation map,
// ByCrit slices — for ~2,400 calls per task set, which dominated the
// Fig. 4–6 sweeps once the simulator hot path was fixed.
//
// The engine exploits the closed-form structure of Eqs. 10–13: the
// objective is a product of per-task bound factors (1 − b.P(n_i), with
// the Cantelli 1/(1+n_i²) as the default b — Options.Bound swaps in any
// stats.Bound) times a function of the running HC utilisation sum
// Σ (ACET_i+n_i·σ_i)/P_i. An Evaluator hoists the per-HC-task invariants
// (ACET_i, σ_i, C^HI_i, P_i) and the genome-independent utilisations
// (U^HI_HC, U^LO_LC) once at construction; Fitness then scores a genome
// in one left-to-right pass over its genes, carrying the Eq. 10 product
// and the Eq. 11 sum in two locals.
//
// Fitness is bit-identical to the reference path
// core.ApplyBound + edfvd.Schedulable + core.ObjectiveValue by
// construction — the same expressions are evaluated in the same order —
// and the property tests in this package pin it. At the paper's genome
// lengths one pass costs less than any bookkeeping that would let a GA
// child reuse its parent's partial results, so there is none: the
// Evaluator holds no mutable state.
package objective

import (
	"fmt"
	"math"

	"chebymc/internal/core"
	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
	"chebymc/internal/stats"
)

// Options configures an Evaluator.
type Options struct {
	// RequireLC makes genomes whose assignment cannot also schedule the
	// task set's actual LC load (Eq. 8) infeasible — the acceptance-ratio
	// configuration of Fig. 6.
	RequireLC bool
	// Bound selects the concentration inequality behind the Eq. 10
	// per-task factor. nil selects core.DefaultBound() (Cantelli), which
	// reproduces the historical engine bit for bit.
	Bound stats.Bound
}

// Evaluator scores Eq. 13 for n-vectors over the HC tasks of one task
// set. It is read-only after New, so any number of goroutines may call
// Fitness concurrently. The task set must not change while the Evaluator
// is in use.
type Evaluator struct {
	// h is the number of HC tasks (the genome length); inv packs their
	// invariants — ACET_i, σ_i, C^HI_i, P_i — four per task in task-set
	// order (the order core.Apply matches genomes against), so a gene
	// evaluation touches one cache line and one bounds check.
	h   int
	inv []float64
	// uHCHI and uLCLO are the genome-independent utilisation sums of
	// Eq. 7, accumulated with the same left-to-right loops
	// mc.TaskSet.Util runs.
	uHCHI, uLCLO float64
	requireLC    bool

	// bound is the Eq. 10 concentration inequality; cantelli marks the
	// default engine, whose P is inlined on the hot path (same
	// expression as stats.CantelliBound, so the devirtualisation is
	// bit-identical).
	bound    stats.Bound
	cantelli bool
}

// New builds an Evaluator for the HC tasks of ts. It returns an error
// for a set without HC tasks — there is nothing to optimise.
func New(ts *mc.TaskSet, opts Options) (*Evaluator, error) {
	b := opts.Bound
	if b == nil {
		b = core.DefaultBound()
	}
	_, cantelli := b.(stats.Cantelli)
	e := &Evaluator{requireLC: opts.RequireLC, bound: b, cantelli: cantelli}
	for _, t := range ts.Tasks {
		switch t.Crit {
		case mc.HC:
			e.inv = append(e.inv, t.Profile.ACET, t.Profile.Sigma, t.CHI, t.Period)
			e.uHCHI += t.UHI()
		default:
			e.uLCLO += t.ULO()
		}
	}
	e.h = len(e.inv) / 4
	if e.h == 0 {
		return nil, fmt.Errorf("objective: task set has no HC tasks")
	}
	return e, nil
}

// NumGenes reports the genome length the Evaluator scores: the number of
// HC tasks.
func (e *Evaluator) NumGenes() int { return e.h }

// gene derives HC task i's term and utilisation from its n parameter,
// replicating core.Apply's Eq. 6/Eq. 9 handling exactly: the one-ulp
// overshoot of a clamped n = NMax snaps to C^HI, genuine violations,
// non-positive budgets and negative n mark the gene infeasible (NaN).
func (e *Evaluator) gene(n float64, i int) (term, u float64) {
	v := e.inv[4*i : 4*i+4 : 4*i+4]
	w := v[0] + n*v[1]
	ok := n >= 0
	if chi := v[2]; w > chi {
		if w <= chi*(1+core.Eq9Slack) {
			w = chi
		} else {
			ok = false
		}
	}
	if !(w > 0) {
		ok = false
	}
	if !ok {
		return math.NaN(), math.NaN()
	}
	if e.cantelli {
		// Inlined stats.CantelliBound (n ≥ 0 here, so the n < 0 clamp
		// inside the free function is dead): same expression, same bits.
		term = 1 - 1/(1+n*n)
	} else {
		term = 1 - e.bound.P(n)
	}
	return term, w / v[3]
}

// Fitness scores one genome — the first NumGenes genes of g — with zero
// heap allocations. It satisfies the ga.Problem.Fitness contract: it
// neither retains nor mutates g, and it returns −Inf for a genome with
// an infeasible gene (a negative n, an Eq. 9 violation or a
// non-positive budget) or, under RequireLC, an Eq. 8 failure.
func (e *Evaluator) Fitness(g []float64) float64 {
	// The Eq. 10 product Π(1−bound) and the Eq. 11 sum Σ U^LO_HC, in
	// the left-to-right order of core.SystemMSProb and mc.TaskSet.Util.
	ns, uHCLO := 1.0, 0.0
	for i, n := range g[:e.h] {
		term, u := e.gene(n, i)
		if math.IsNaN(term) {
			return math.Inf(-1)
		}
		ns *= term
		uHCLO += u
	}
	return e.finish(1-ns, uHCLO)
}

// finish turns P^MS_sys = 1 − Π(1−bound) (core.SystemMSProb) and the HC
// LO utilisation into the fitness value, in the same operation order as
// the reference path: max U^LO_LC from Eqs. 11–12 (core.MaxULCLO), the
// optional Eq. 8 feasibility gate (edfvd.Schedulable), and Eq. 13 via
// core.ObjectiveValue.
func (e *Evaluator) finish(pms, uHCLO float64) float64 {
	if e.requireLC && !edfvd.SchedulableUtil(e.uLCLO, uHCLO, e.uHCHI, 0).Schedulable {
		return math.Inf(-1)
	}
	return core.ObjectiveValue(pms, core.MaxULCLO(uHCLO, e.uHCHI))
}
