package stats

import (
	"fmt"
	"math"
	"strings"
)

// Bound is a one-sided concentration inequality on the upper tail of a
// random variable with finite mean and standard deviation: P(n) bounds
// Pr[X > E[X] + n·σ]. It generalises the paper's Theorem 1 (the Cantelli
// bound 1/(1+n²)) so the WCET^opt machinery can swap in tighter
// inequalities — Vysochanskij–Petunin for unimodal execution times,
// higher-moment Cantelli, empirical tails — without touching consumers.
//
// Contract, shared by every implementation and pinned by the conformance
// suite in bound_test.go:
//
//   - P is non-increasing in n, P(n) ∈ [0, 1], and P(n) = 1 for n ≤ 0
//     (vacuous at or below the mean).
//   - NFor(p) returns the smallest n with P(n) ≤ p. Out-of-domain targets
//     clamp: p ≥ 1 → 0, and p ≤ 0 or NaN → +Inf (no finite n can force
//     the tail below an impossible target).
//   - Name is a short stable identifier used in tables, flags and the
//     serve cache digest; parameterised bounds additionally expose their
//     parameters through BoundParams (see BoundDigest).
type Bound interface {
	// P bounds the overrun probability Pr[X > E[X] + n·σ].
	P(n float64) float64
	// NFor inverts P: the smallest n with P(n) ≤ p.
	NFor(p float64) float64
	// Name identifies the bound in output and cache digests.
	Name() string
}

// DefaultBoundName is Cantelli's Name. Consumers compare against it to
// decide whether output should carry a bound marker (the default must
// render byte-identically to the pre-interface code).
const DefaultBoundName = "cantelli"

// Cantelli is the paper's Theorem 1 bound 1/(1+n²) — the engine default.
// Its P delegates to CantelliBound, so code refactored from the free
// function onto the interface stays bit-identical.
type Cantelli struct{}

// P implements Bound via CantelliBound.
func (Cantelli) P(n float64) float64 { return CantelliBound(n) }

// NFor implements Bound via NForBound (n = √(1/p − 1)).
func (Cantelli) NFor(p float64) float64 { return NForBound(p) }

// Name implements Bound.
func (Cantelli) Name() string { return DefaultBoundName }

// TwoSidedChebyshev applies the classical two-sided bound 1/n² to the
// upper tail: a valid (if crude) one-sided statement, tighter than
// Cantelli for n > (1+√5)/2 ≈ 1.618 but vacuous all the way to n = 1.
// Kept as the one-sided-vs-two-sided ablation bound.
type TwoSidedChebyshev struct{}

// P implements Bound via TwoSidedChebyshevBound.
func (TwoSidedChebyshev) P(n float64) float64 { return TwoSidedChebyshevBound(n) }

// NFor implements Bound: 1/n² ≤ p at n = 1/√p.
func (TwoSidedChebyshev) NFor(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 0
	}
	return 1 / math.Sqrt(p)
}

// Name implements Bound.
func (TwoSidedChebyshev) Name() string { return "chebyshev2" }

// VysochanskijPetunin is the one-sided Vysochanskij–Petunin inequality
// for unimodal distributions:
//
//	Pr[X > E[X] + n·σ] ≤ 4/(9(1+n²))        for n² ≥ 5/3
//	Pr[X > E[X] + n·σ] ≤ 4/(3(1+n²)) − 1/3  for 0 < n² < 5/3
//
// (Mercadier & Strobel's one-sided form). It is pointwise ≤ Cantelli, so
// for unimodal execution-time kernels it certifies the same overrun target
// at a strictly smaller n — larger Eq. 9 headroom.
type VysochanskijPetunin struct{}

// vpCross is the crossover tail value P(√(5/3)) = 1/6 where the two
// branches of the inequality meet.
const vpCross = 1.0 / 6

// P implements Bound.
func (VysochanskijPetunin) P(n float64) float64 {
	if n <= 0 {
		return 1
	}
	n2 := n * n
	if n2 >= 5.0/3 {
		return 4 / (9 * (1 + n2))
	}
	return 4/(3*(1+n2)) - 1.0/3
}

// NFor implements Bound. Both branches invert in closed form:
// n = √(4/(9p) − 1) for p ≤ 1/6 and n = √(4/(3p+1) − 1) above.
func (VysochanskijPetunin) NFor(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 0
	}
	if p <= vpCross {
		return math.Sqrt(4/(9*p) - 1)
	}
	return math.Sqrt(4/(3*p+1) - 1)
}

// Name implements Bound.
func (VysochanskijPetunin) Name() string { return "vp" }

// HigherMomentCantelli is the k-th-moment Markov bound on the centred
// tail: with r = E|X − E[X]|^k / σ^k the standardised k-th absolute
// central moment,
//
//	Pr[X > E[X] + n·σ] ≤ Pr[|X − E[X]| ≥ n·σ] ≤ r/n^k.
//
// For k = 2 and r = 1 it reduces to the two-sided Chebyshev bound; larger
// k trades a bigger constant for faster decay, overtaking Cantelli once
// n > r^(1/(k−2)) roughly. K = 4, Moment = 3 is the Gaussian
// parameterisation (normal kurtosis 3, conservative for the truncated
// normals the simulator draws); NewHigherMomentCantelli estimates the
// moment from samples instead.
type HigherMomentCantelli struct {
	// K is the moment order, ≥ 2.
	K int
	// Moment is the standardised k-th absolute central moment r.
	Moment float64
}

// NewHigherMomentCantelli builds the bound with r estimated from xs:
// r = (Σ|x−mean|^k/N) / σ^k. It fails for k < 2, an empty sample or a
// degenerate one (σ = 0).
func NewHigherMomentCantelli(k int, xs []float64) (HigherMomentCantelli, error) {
	if k < 2 {
		return HigherMomentCantelli{}, fmt.Errorf("stats: moment order %d must be ≥ 2", k)
	}
	s, err := Summarize(xs)
	if err != nil {
		return HigherMomentCantelli{}, err
	}
	if s.StdDev == 0 {
		return HigherMomentCantelli{}, fmt.Errorf("stats: degenerate sample (σ = 0), no moment bound")
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(math.Abs(x-s.Mean), float64(k))
	}
	r := sum / float64(s.N) / math.Pow(s.StdDev, float64(k))
	return HigherMomentCantelli{K: k, Moment: r}, nil
}

// P implements Bound, clamping to the vacuous 1 where r/n^k exceeds it.
func (b HigherMomentCantelli) P(n float64) float64 {
	if n <= 0 {
		return 1
	}
	p := b.Moment / math.Pow(n, float64(b.K))
	if p > 1 {
		return 1
	}
	return p
}

// NFor implements Bound: r/n^k ≤ p at n = (r/p)^(1/k), floored at the
// vacuity edge where P is already ≤ p at n = 0.
func (b HigherMomentCantelli) NFor(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 0
	}
	return math.Pow(b.Moment/p, 1/float64(b.K))
}

// Name implements Bound.
func (b HigherMomentCantelli) Name() string { return fmt.Sprintf("moment%d", b.K) }

// BoundParams implements the optional parameter hook for BoundDigest.
func (b HigherMomentCantelli) BoundParams() []float64 {
	return []float64{float64(b.K), b.Moment}
}

// EmpiricalTail wraps an arbitrary exceedance function — an ECDF tail or
// a fitted distribution's survival function — as a Bound on the (Mean, σ)
// scale the WCET machinery works in: P(n) = Exceed(Mean + n·σ). It is the
// "measured/fitted" end of the bound spectrum: not distribution-free, but
// the tightest statement the data supports. NFor inverts P numerically
// (monotone bisection), so the exact P(NFor(p)) == p round-trip of the
// closed-form bounds is relaxed to P(NFor(p)) ≤ p here.
type EmpiricalTail struct {
	// Mean, Sigma locate the n scale.
	Mean, Sigma float64
	// Exceed returns the tail probability Pr[X > x]; it must be
	// non-increasing in x.
	Exceed func(x float64) float64
	// Label is the Name; "empirical" when empty.
	Label string
}

// NewECDFBound builds an EmpiricalTail from raw samples: the n scale from
// their summary statistics, the tail from their ECDF.
func NewECDFBound(xs []float64) (*EmpiricalTail, error) {
	s, err := Summarize(xs)
	if err != nil {
		return nil, err
	}
	e, err := NewECDF(xs)
	if err != nil {
		return nil, err
	}
	return &EmpiricalTail{Mean: s.Mean, Sigma: s.StdDev, Exceed: e.Exceed, Label: "empirical"}, nil
}

// P implements Bound. n ≤ 0 is vacuous by the interface contract even
// when the underlying data would claim otherwise.
func (b *EmpiricalTail) P(n float64) float64 {
	if n <= 0 {
		return 1
	}
	if math.IsInf(n, 1) {
		return 0
	}
	p := b.Exceed(b.Mean + n*b.Sigma)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NFor implements Bound by monotone bisection on P.
func (b *EmpiricalTail) NFor(p float64) float64 {
	return nForMonotone(b.P, p)
}

// Name implements Bound.
func (b *EmpiricalTail) Name() string {
	if b.Label == "" {
		return "empirical"
	}
	return b.Label
}

// BoundParams implements the optional parameter hook for BoundDigest.
func (b *EmpiricalTail) BoundParams() []float64 { return []float64{b.Mean, b.Sigma} }

// nForMonotone inverts a non-increasing tail function by doubling then
// bisection: the smallest n with p(n) ≤ target, to float precision. The
// domain clamps match the Bound.NFor contract.
func nForMonotone(p func(float64) float64, target float64) float64 {
	if math.IsNaN(target) || target <= 0 {
		return math.Inf(1)
	}
	if target >= 1 {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; p(hi) > target; i++ {
		lo, hi = hi, hi*2
		if i > 200 { // tail never reaches target
			return math.Inf(1)
		}
	}
	for i := 0; i < 100; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if p(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// BoundNames lists the flag-selectable bound names BoundByName accepts,
// in presentation order.
func BoundNames() []string {
	return []string{"cantelli", "chebyshev2", "vp", "moment4"}
}

// BoundByName resolves a -bound flag value to a Bound. Data-dependent
// bounds (EmpiricalTail, sample-moment HigherMomentCantelli) are not
// selectable here — they need a trace to construct; "moment4" is the
// Gaussian parameterisation (r = 3).
func BoundByName(name string) (Bound, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "cantelli":
		return Cantelli{}, nil
	case "chebyshev2", "chebyshev":
		return TwoSidedChebyshev{}, nil
	case "vp", "vysochanskij-petunin":
		return VysochanskijPetunin{}, nil
	case "moment4":
		return HigherMomentCantelli{K: 4, Moment: 3}, nil
	default:
		return nil, fmt.Errorf("stats: unknown bound %q (want one of %s)", name, strings.Join(BoundNames(), ", "))
	}
}

// BoundDigest fingerprints a bound's identity — its Name plus, for
// parameterised bounds exposing BoundParams, the raw parameter bits — as
// an FNV-1a hash. The serve layer folds it into its request digest so
// cached assignments cannot leak between bounds.
func BoundDigest(b Bound) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range []byte(b.Name()) {
		h ^= uint64(c)
		h *= prime64
	}
	if p, ok := b.(interface{ BoundParams() []float64 }); ok {
		for _, v := range p.BoundParams() {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (bits >> s) & 0xff
				h *= prime64
			}
		}
	}
	return h
}
