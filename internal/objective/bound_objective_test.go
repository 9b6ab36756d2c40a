package objective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chebymc/internal/core"
	"chebymc/internal/mc"
	"chebymc/internal/stats"
)

// testBounds are the bound engines the equivalence tests sweep.
func testBounds() []stats.Bound {
	return []stats.Bound{
		stats.Cantelli{},
		stats.TwoSidedChebyshev{},
		stats.VysochanskijPetunin{},
		stats.HigherMomentCantelli{K: 4, Moment: 3},
	}
}

// TestFitnessBoundMatchesApplyPath: under every bound, with RequireLC
// off and on, the engine's full evaluation must equal the core.ApplyBound
// reference to the last bit — on random genomes, on every set's Eq. 9
// edge genomes, and on the hand-built edge set with its σ = 0 task.
func TestFitnessBoundMatchesApplyPath(t *testing.T) {
	for _, b := range testBounds() {
		t.Run(b.Name(), func(t *testing.T) {
			for _, requireLC := range []bool{false, true} {
				r := rand.New(rand.NewSource(23))
				sets := []*mc.TaskSet{edgeSet(t)}
				for set := 0; set < 20; set++ {
					if ts := randomSet(t, r, set%2 == 0); ts.NumHC() > 0 {
						sets = append(sets, ts)
					}
				}
				for _, ts := range sets {
					e, err := New(ts, Options{RequireLC: requireLC, Bound: b})
					if err != nil {
						t.Fatal(err)
					}
					genomes := edgeGenomes(ts)
					for trial := 0; trial < 20; trial++ {
						genomes = append(genomes, randomGenome(r, ts))
					}
					assertMatchesRef(t, e, refFitness(ts, requireLC, b), genomes)
				}
			}
		})
	}
}

// TestNilBoundIsCantelli: the nil default and an explicit Cantelli{} are
// the same engine — same scores, same inlined hot path.
func TestNilBoundIsCantelli(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ts := randomSet(t, r, false)
	eNil, err := New(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eCan, err := New(ts, Options{Bound: stats.Cantelli{}})
	if err != nil {
		t.Fatal(err)
	}
	if !eNil.cantelli || !eCan.cantelli {
		t.Fatalf("cantelli fast path = (%v, %v), want both true", eNil.cantelli, eCan.cantelli)
	}
	for trial := 0; trial < 25; trial++ {
		g := randomGenome(r, ts)
		a, b := eNil.Fitness(g), eCan.Fitness(g)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: nil-bound %g != Cantelli %g", trial, a, b)
		}
	}
}

// TestBoundSeparation: only the Cantelli default takes the inlined fast
// path; every other bound goes through its own P.
func TestBoundSeparation(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	ts := randomSet(t, r, false)
	for _, b := range testBounds() {
		e, err := New(ts, Options{Bound: b})
		if err != nil {
			t.Fatal(err)
		}
		if want := b.Name() == stats.DefaultBoundName; e.cantelli != want {
			t.Errorf("%s: cantelli fast path = %v, want %v", b.Name(), e.cantelli, want)
		}
	}
}

// TestFitnessAllocationFree asserts the hot path stays at zero heap
// allocations per call after the bound-interface refactor, for the
// default engine and a non-default bound alike (the bench gate watches
// the same property over time; this pins it in-tree).
func TestFitnessAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	ts := randomSet(t, r, false)
	for _, opts := range []Options{{}, {Bound: stats.VysochanskijPetunin{}}} {
		opts := opts
		name := "default"
		if opts.Bound != nil {
			name = opts.Bound.Name()
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(ts, opts)
			if err != nil {
				t.Fatal(err)
			}
			g := randomGenome(r, ts)
			if allocs := testing.AllocsPerRun(200, func() { e.Fitness(g) }); allocs != 0 {
				t.Fatalf("Fitness allocates %g times per call, want 0", allocs)
			}
		})
	}
}

// TestGABoundSearchDiffers is a smoke check that a non-default bound
// actually changes what the optimiser sees: for a genome with moderate n
// values the VP objective must exceed Cantelli's (tighter bound ⇒ lower
// P^MS ⇒ higher Eq. 13 value).
func TestGABoundSearchDiffers(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for set := 0; set < 10; set++ {
		ts := randomSet(t, r, false)
		if ts.NumHC() == 0 {
			continue
		}
		eCan, err := New(ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eVP, err := New(ts, Options{Bound: stats.VysochanskijPetunin{}})
		if err != nil {
			t.Fatal(err)
		}
		g := make([]float64, ts.NumHC())
		hcs := ts.ByCrit(mc.HC)
		for i, task := range hcs {
			g[i] = math.Min(2, core.NMax(task))
		}
		can, vp := eCan.Fitness(g), eVP.Fitness(g)
		if math.IsInf(can, -1) || math.IsInf(vp, -1) {
			continue
		}
		if vp < can {
			t.Fatalf("set %d: VP objective %g below Cantelli %g for %s", set, vp, can, fmt.Sprint(g))
		}
	}
}
