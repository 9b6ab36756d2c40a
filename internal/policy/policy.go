// Package policy collects the WCET^opt assignment policies the paper
// compares in Section V-C: the proposed Chebyshev scheme with a uniform n
// (Figs. 2–3), the proposed scheme with per-task n_i found by the genetic
// algorithm (Figs. 4–5), and the state-of-the-art λ-fraction baselines
// that set WCET^opt as a share of WCET^pes (Baruah [1], Liu [9], Guo [4]).
package policy

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"chebymc/internal/core"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/objective"
	"chebymc/internal/stats"
)

// Policy assigns optimistic WCETs to the HC tasks of a task set. The
// *rand.Rand parameterises stochastic policies (per-task λ ranges, GA);
// deterministic policies ignore it.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Assign produces the Assignment for ts.
	Assign(ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error)
}

// CtxPolicy is implemented by policies whose Assign can take long enough
// to matter for cancellation (today: the GA search). AssignCtx is Assign
// with cooperative cancellation; an uncancelled call is bit-identical.
type CtxPolicy interface {
	Policy
	// AssignCtx is Assign observing ctx.
	AssignCtx(ctx context.Context, ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error)
}

// AssignCtx runs p.Assign under ctx: policies implementing CtxPolicy are
// cancellable mid-search, instant policies are gated by one up-front ctx
// check. This is the entry point long-running drivers (mcserve) use so a
// client disconnect or deadline stops the GA instead of burning a core.
func AssignCtx(ctx context.Context, p Policy, ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	if cp, ok := p.(CtxPolicy); ok {
		return cp.AssignCtx(ctx, ts, r)
	}
	if err := ctx.Err(); err != nil {
		return core.Assignment{}, err
	}
	return p.Assign(ts, r)
}

// ChebyshevUniform applies Eq. 6 with a single n for every HC task,
// clamped per task to the Eq. 9 maximum — the configuration of the uniform
// sweeps in Figs. 2 and 3.
type ChebyshevUniform struct {
	// N is the shared parameter.
	N float64
	// Bound selects the concentration inequality behind the Eq. 10
	// mode-switch probability; nil keeps the paper's Cantelli default
	// (and the historical output bit for bit).
	Bound stats.Bound
}

// Name implements Policy. A non-default bound is spelled out so
// experiment tables distinguish the engines.
func (p ChebyshevUniform) Name() string {
	return fmt.Sprintf("chebyshev-n=%g%s", p.N, boundSuffix(p.Bound))
}

// Assign implements Policy.
func (p ChebyshevUniform) Assign(ts *mc.TaskSet, _ *rand.Rand) (core.Assignment, error) {
	ns := make([]float64, ts.NumHC())
	for i := range ns {
		ns[i] = p.N
	}
	clamped, err := core.ClampNS(ts, ns)
	if err != nil {
		return core.Assignment{}, err
	}
	return core.ApplyBound(ts, clamped, boundOrDefault(p.Bound))
}

// boundOrDefault resolves a policy's optional bound field.
func boundOrDefault(b stats.Bound) stats.Bound {
	if b == nil {
		return core.DefaultBound()
	}
	return b
}

// boundSuffix renders the policy-name marker for a non-default bound.
// An explicit Cantelli is the default spelled out — no marker, so flag
// plumbing that always resolves its bound keeps the historical names.
func boundSuffix(b stats.Bound) string {
	if b == nil || b.Name() == stats.DefaultBoundName {
		return ""
	}
	return "[" + b.Name() + "]"
}

// ChebyshevGA searches per-task n_i with the paper's genetic algorithm,
// maximising the Eq. 13 objective subject to Eq. 9 (via gene bounds) — the
// proposed scheme of Figs. 4 and 5.
type ChebyshevGA struct {
	// Config tunes the GA. Zero fields are filled from ga.Defaults() —
	// the paper's parameters (two-point crossover 0.8, single-point
	// mutation 0.2, tournament 5) — so a partial Config overrides just
	// the named fields. Callers that need literal zeros (disabled
	// operators, no elitism) should run the search through ga.Run
	// directly, where every field is taken literally.
	Config ga.Config
	// NCap bounds the per-task search range [0, min(NMax, NCap)];
	// defaults to 50 when zero. Without a cap the bound-free tasks
	// (σ → 0) would make the search space needlessly wide.
	NCap float64
	// RequireLC, when true, makes assignments that cannot also schedule
	// the task set's *actual* LC load (Eq. 8 with the set's U^LO_LC)
	// infeasible — the acceptance-ratio configuration of Fig. 6.
	RequireLC bool
	// Bound selects the concentration inequality the objective engine
	// scores Eq. 10 with; nil keeps the paper's Cantelli default (and the
	// engine goldens bit-identical).
	Bound stats.Bound
}

// Name implements Policy.
func (p ChebyshevGA) Name() string { return "chebyshev-ga" + boundSuffix(p.Bound) }

// Assign implements Policy. Fitness evaluation runs on the allocation-free
// Eq. 13 engine (internal/objective): the per-task invariants are hoisted
// here, once, and the GA scores genomes without ever materialising an
// assignment — core.Apply runs exactly once, on the winner.
func (p ChebyshevGA) Assign(ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	return p.AssignCtx(context.Background(), ts, r)
}

// AssignCtx implements CtxPolicy: the GA search checks ctx once per
// generation, so a cancelled request abandons the search within one
// generation's work instead of running all of them.
func (p ChebyshevGA) AssignCtx(ctx context.Context, ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	return p.assignWith(ctx, ts, r, nil)
}

// assignWith is AssignCtx with an optional wrapper around the fitness
// function the GA calls; nil scores every genome with Evaluator.Fitness
// directly. The golden-engine tests wrap it in a genome-keyed memo to pin
// that a score is a pure function of the genome.
func (p ChebyshevGA) assignWith(ctx context.Context, ts *mc.TaskSet, r *rand.Rand, wrap func(func([]float64) float64) func([]float64) float64) (core.Assignment, error) {
	hcs := ts.ByCrit(mc.HC)
	if len(hcs) == 0 {
		return core.Apply(ts, nil)
	}
	nCap := p.NCap
	if nCap == 0 {
		nCap = 50
	}
	bounds := make([]ga.Bound, len(hcs))
	for i, t := range hcs {
		hi := core.NMax(t)
		if hi < 0 {
			return core.Assignment{}, fmt.Errorf("policy: task %d: ACET exceeds WCET^pes", t.ID)
		}
		bounds[i] = ga.Bound{Lo: 0, Hi: math.Min(hi, nCap)}
	}
	eval, err := objective.New(ts, objective.Options{RequireLC: p.RequireLC, Bound: p.Bound})
	if err != nil {
		return core.Assignment{}, err
	}
	fitness := eval.Fitness
	if wrap != nil {
		fitness = wrap(fitness)
	}
	cfg := fillGADefaults(p.Config)
	cfg.Seed = r.Int63()
	res, err := ga.RunCtx(ctx, ga.Problem{Bounds: bounds, Fitness: fitness}, cfg)
	if err != nil {
		return core.Assignment{}, err
	}
	if math.IsInf(res.BestFitness, -1) {
		return core.Assignment{}, fmt.Errorf("policy: no feasible assignment found")
	}
	return core.ApplyBound(ts, res.Best, boundOrDefault(p.Bound))
}

// fillGADefaults fills the zero fields of a partial GA config from
// ga.Defaults(). The policy layer keeps the merge so experiment configs
// can spell only the fields they tune (typically PopSize/Generations).
func fillGADefaults(cfg ga.Config) ga.Config {
	def := ga.Defaults()
	if cfg.PopSize == 0 {
		cfg.PopSize = def.PopSize
	}
	if cfg.Generations == 0 {
		cfg.Generations = def.Generations
	}
	if cfg.CrossProb == 0 {
		cfg.CrossProb = def.CrossProb
	}
	if cfg.MutProb == 0 {
		cfg.MutProb = def.MutProb
	}
	if cfg.TournamentK == 0 {
		cfg.TournamentK = def.TournamentK
	}
	if cfg.Elites == 0 {
		cfg.Elites = def.Elites
	}
	return cfg
}

// LambdaFixed is the state-of-the-art baseline with a fixed fraction:
// C^LO = λ·C^HI for every HC task (Guo [4] and Gu [12] use
// λ ∈ {1/16, 1/8, 1/4, 1/2, 1}).
type LambdaFixed struct {
	// Lambda is the fraction of WCET^pes, in (0, 1].
	Lambda float64
	// Bound selects the inequality the assignment's P_sys^MS is reported
	// under; nil keeps the Cantelli default. λ baselines pick budgets
	// without consulting the bound — only the reported metrics change —
	// but comparisons against bound-aware policies must score every
	// line-up member under the same inequality.
	Bound stats.Bound
}

// Name implements Policy.
func (p LambdaFixed) Name() string {
	return fmt.Sprintf("lambda=1/%g%s", 1/p.Lambda, boundSuffix(p.Bound))
}

// Assign implements Policy.
func (p LambdaFixed) Assign(ts *mc.TaskSet, _ *rand.Rand) (core.Assignment, error) {
	if p.Lambda <= 0 || p.Lambda > 1 {
		return core.Assignment{}, fmt.Errorf("policy: λ %g out of (0, 1]", p.Lambda)
	}
	hcs := ts.ByCrit(mc.HC)
	clo := make([]float64, len(hcs))
	for i, t := range hcs {
		clo[i] = p.Lambda * t.CHI
	}
	return core.FromCLOBound(ts, clo, boundOrDefault(p.Bound))
}

// LambdaRange is Baruah's experimental baseline [1]: each HC task draws an
// independent λ_i uniformly from [Lo, Hi] and sets C^LO = λ_i·C^HI. The
// paper compares against [Lo, Hi] = [1/4, 1] and [1/8, 1].
type LambdaRange struct {
	// Lo, Hi bound the per-task fraction; 0 < Lo ≤ Hi ≤ 1.
	Lo, Hi float64
	// Bound selects the reporting inequality, as in LambdaFixed.
	Bound stats.Bound
}

// Name implements Policy.
func (p LambdaRange) Name() string {
	return fmt.Sprintf("lambda=[1/%g,1/%g]%s", 1/p.Lo, 1/p.Hi, boundSuffix(p.Bound))
}

// Assign implements Policy.
func (p LambdaRange) Assign(ts *mc.TaskSet, r *rand.Rand) (core.Assignment, error) {
	if !(0 < p.Lo && p.Lo <= p.Hi && p.Hi <= 1) {
		return core.Assignment{}, fmt.Errorf("policy: λ range [%g, %g] invalid", p.Lo, p.Hi)
	}
	hcs := ts.ByCrit(mc.HC)
	clo := make([]float64, len(hcs))
	for i, t := range hcs {
		lambda := p.Lo + r.Float64()*(p.Hi-p.Lo)
		clo[i] = lambda * t.CHI
	}
	return core.FromCLOBound(ts, clo, boundOrDefault(p.Bound))
}

// ACETOnly sets C^LO = ACET (n = 0), the naive strategy the motivational
// example shows to switch modes on roughly half of all jobs.
type ACETOnly struct{}

// Name implements Policy.
func (ACETOnly) Name() string { return "acet" }

// Assign implements Policy.
func (ACETOnly) Assign(ts *mc.TaskSet, _ *rand.Rand) (core.Assignment, error) {
	return ChebyshevUniform{N: 0}.Assign(ts, nil)
}
