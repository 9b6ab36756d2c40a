package vmcpu

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMachineCacheHitMiss(t *testing.T) {
	m := NewMachine(DefaultCosts(), CacheConfig{Lines: 4, WordsPerLine: 4})
	c := DefaultCosts()

	m.Load(0) // cold miss
	if got := m.Cycles(); got != c.MemMiss {
		t.Fatalf("first load cycles = %g, want %g", got, c.MemMiss)
	}
	m.Load(1) // same line: hit
	if got := m.Cycles(); got != c.MemMiss+c.MemHit {
		t.Fatalf("second load cycles = %g, want %g", got, c.MemMiss+c.MemHit)
	}
	// Address 4*4*... conflicting line: line index = addr/4 mod 4.
	m.Load(64) // line 16 → idx 0: evicts line 0
	m.Load(0)  // miss again (conflict)
	want := c.MemMiss + c.MemHit + c.MemMiss + c.MemMiss
	if got := m.Cycles(); got != want {
		t.Fatalf("after conflict cycles = %g, want %g", got, want)
	}
	if m.MissRate() != 0.75 {
		t.Errorf("miss rate = %g, want 0.75", m.MissRate())
	}
}

func TestMachineBranchPredictor(t *testing.T) {
	m := NewDefaultMachine()
	c := DefaultCosts()

	m.Branch(1, false) // predictor inits not-taken: correct
	if got := m.Cycles(); got != c.Branch {
		t.Fatalf("predicted branch cycles = %g, want %g", got, c.Branch)
	}
	m.Branch(1, true) // flips: mispredict
	if got := m.Cycles(); got != 2*c.Branch+c.BranchMiss {
		t.Fatalf("mispredicted branch cycles = %g", got)
	}
	m.Branch(1, true) // repeated: correct
	if got := m.Cycles(); got != 3*c.Branch+c.BranchMiss {
		t.Fatalf("re-predicted branch cycles = %g", got)
	}
	// A fresh site taken on first encounter also misses.
	before := m.Cycles()
	m.Branch(2, true)
	if got := m.Cycles() - before; got != c.Branch+c.BranchMiss {
		t.Fatalf("first taken on fresh site = %g, want %g", got, c.Branch+c.BranchMiss)
	}
	if m.BranchMissRate() != 0.5 {
		t.Errorf("branch miss rate = %g, want 0.5", m.BranchMissRate())
	}
}

func TestMachineOpCosts(t *testing.T) {
	m := NewDefaultMachine()
	c := DefaultCosts()
	m.ALU(3)
	m.MulOp(2)
	m.DivOp(1)
	m.Call()
	m.Ret()
	want := 3*c.ALU + 2*c.Mul + c.Div + c.Call + c.Ret
	if got := m.Cycles(); got != want {
		t.Fatalf("cycles = %g, want %g", got, want)
	}
}

func TestMachineReset(t *testing.T) {
	m := NewDefaultMachine()
	m.Load(0)
	m.Branch(1, true)
	m.ALU(5)
	m.Alloc(100)
	m.Reset()
	if m.Cycles() != 0 || m.MissRate() != 0 || m.BranchMissRate() != 0 {
		t.Error("Reset must clear counters")
	}
	// Cache must be cold again.
	c := DefaultCosts()
	m.Load(0)
	if m.Cycles() != c.MemMiss {
		t.Error("Reset must flush the cache")
	}
	// Allocator must restart.
	if m.Alloc(10) != 0 {
		t.Error("Reset must restart the allocator")
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := NewDefaultMachine()
	a := m.Alloc(100)
	b := m.Alloc(50)
	if b < a+100 {
		t.Fatalf("allocations overlap: a=%d..%d b=%d", a, a+100, b)
	}
}

func TestMachineDefaultsOnBadCache(t *testing.T) {
	m := NewMachine(DefaultCosts(), CacheConfig{})
	// Must not panic and must behave like the default geometry.
	m.Load(0)
	if m.Cycles() != DefaultCosts().MemMiss {
		t.Error("bad cache config did not fall back to defaults")
	}
}

func TestMachinePanicsOnNonPowerOfTwoCache(t *testing.T) {
	for _, g := range []CacheConfig{
		{Lines: 1000, WordsPerLine: 8},
		{Lines: 1024, WordsPerLine: 6},
		{Lines: 3, WordsPerLine: 3},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "powers of two") {
					t.Errorf("%+v: panic %q, want a powers-of-two message", g, msg)
				}
			}()
			NewMachine(DefaultCosts(), g)
		}()
	}
}

func TestMachineResetAllocatesNothing(t *testing.T) {
	m := NewDefaultMachine()
	Collect(Epic{}, m, 2, rand.New(rand.NewSource(1)))
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		m.Load(0)
		m.Branch(siteEpicRunFlush, true)
	})
	if allocs != 0 {
		t.Errorf("Reset on a reused machine allocates %g times per job", allocs)
	}
}

// shippedCosts are the cost models the package exports, by name.
var shippedCosts = map[string]Costs{
	"default": DefaultCosts(),
	"cortexm": CostsCortexM(),
	"dsp":     CostsDSP(),
}

// TestCostModelsWholeNumbers checks the condition under which pricing
// event counts once equals accumulating each cost as it happens.
func TestCostModelsWholeNumbers(t *testing.T) {
	for name, c := range shippedCosts {
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i).Float(); f != math.Trunc(f) {
				t.Errorf("%s: %s = %g is not a whole number", name, v.Type().Field(i).Name, f)
			}
		}
	}
}

func TestWorstCostAccessors(t *testing.T) {
	c := DefaultCosts()
	if c.WorstMem() != c.MemMiss {
		t.Error("WorstMem must equal MemMiss")
	}
	if c.WorstBranch() != c.Branch+c.BranchMiss {
		t.Error("WorstBranch must equal Branch+BranchMiss")
	}
}

func TestQSortSortsAndCounts(t *testing.T) {
	m := NewDefaultMachine()
	r := rand.New(rand.NewSource(1))
	// Exercise the algorithm through the instrumented path directly.
	arr := make([]int32, 200)
	for i := range arr {
		arr[i] = int32(r.Intn(1000))
	}
	base := m.Alloc(int64(len(arr)))
	quicksort(m, arr, base, 0, len(arr)-1)
	for i := 1; i < len(arr); i++ {
		if arr[i-1] > arr[i] {
			t.Fatalf("array not sorted at %d: %d > %d", i, arr[i-1], arr[i])
		}
	}
	if m.Cycles() <= 0 {
		t.Fatal("no cycles accounted")
	}
}

func TestQSortWorstCaseCostsMore(t *testing.T) {
	m := NewDefaultMachine()
	r := rand.New(rand.NewSource(2))
	k := 256

	random := make([]int32, k)
	for i := range random {
		random[i] = int32(r.Intn(1 << 20))
	}
	m.Reset()
	quicksort(m, random, m.Alloc(int64(k)), 0, k-1)
	avgCycles := m.Cycles()

	sorted := make([]int32, k)
	for i := range sorted {
		sorted[i] = int32(i)
	}
	m.Reset()
	quicksort(m, sorted, m.Alloc(int64(k)), 0, k-1)
	worstCycles := m.Cycles()

	if worstCycles < 3*avgCycles {
		t.Errorf("sorted input cycles %g not ≫ random input cycles %g", worstCycles, avgCycles)
	}
}

func TestKernelsRunAndVary(t *testing.T) {
	progs := []Program{
		QSort{K: 10},
		QSort{K: 100},
		Corner{},
		Edge{},
		Smooth{},
		Epic{},
	}
	m := NewDefaultMachine()
	for _, p := range progs {
		r := rand.New(rand.NewSource(7))
		xs := Collect(p, m, 60, r)
		if len(xs) != 60 {
			t.Fatalf("%s: Collect returned %d samples", p.Name(), len(xs))
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x <= 0 {
				t.Fatalf("%s: non-positive cycle count %g", p.Name(), x)
			}
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if min == max {
			t.Errorf("%s: no execution-time variation across inputs", p.Name())
		}
	}
}

func TestKernelNames(t *testing.T) {
	tests := []struct {
		p    Program
		want string
	}{
		{QSort{K: 10}, "qsort-10"},
		{QSort{K: 10000}, "qsort-10000"},
		{Corner{}, "corner"},
		{Edge{}, "edge"},
		{Smooth{}, "smooth"},
		{Epic{}, "epic"},
	}
	for _, tc := range tests {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestCollectDeterministicWithSeed(t *testing.T) {
	p := QSort{K: 50}
	m := NewDefaultMachine()
	a := Collect(p, m, 30, rand.New(rand.NewSource(99)))
	b := Collect(p, m, 30, rand.New(rand.NewSource(99)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestGenImageBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		im := GenImage(r, 16, 16)
		if im.W != 16 || im.H != 16 || len(im.Pix) != 256 {
			return false
		}
		for _, v := range im.Pix {
			if v < 0 || v > 255 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQSortGapGrowsWithK(t *testing.T) {
	// The paper's motivational observation: the ratio max/mean grows with
	// the input size because the worst case is quadratic while the
	// average is K log K. Check the coefficient of variation trend via
	// mean vs k.
	m := NewDefaultMachine()
	mean := func(k, n int) float64 {
		r := rand.New(rand.NewSource(5))
		xs := Collect(QSort{K: k, TailProb: -1}, m, n, r) // TailProb<0 handled as given; ~0 prob
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m10 := mean(10, 200)
	m100 := mean(100, 200)
	// Average complexity is superlinear: 10× the input must cost more
	// than 10× the cycles... at least clearly more than linear growth
	// in the instrumented constant-heavy regime.
	if m100 < 8*m10 {
		t.Errorf("qsort mean cycles: k=10 → %g, k=100 → %g; expected ≳ 8× growth", m10, m100)
	}
}

func TestSmoothContentDependence(t *testing.T) {
	// Across many random instances the block-adaptive structure must
	// produce a wide spread: min ≪ max.
	m := NewDefaultMachine()
	xs := Collect(Smooth{}, m, 80, rand.New(rand.NewSource(4)))
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max < 1.2*min {
		t.Errorf("smooth shows too little content dependence: min=%g max=%g", min, max)
	}
}

func TestCostPresetsDistinct(t *testing.T) {
	presets := []Costs{DefaultCosts(), CostsCortexM(), CostsDSP()}
	for i, c := range presets {
		if c.ALU <= 0 || c.MemHit <= 0 || c.MemMiss < c.MemHit {
			t.Errorf("preset %d implausible: %+v", i, c)
		}
	}
	if CostsCortexM() == DefaultCosts() || CostsDSP() == DefaultCosts() {
		t.Error("presets must differ from the default")
	}
}

// BenchmarkKernel times one job instance of each Table I kernel per op,
// on a reused machine as trace collection runs them.
func BenchmarkKernel(b *testing.B) {
	for _, p := range tableIKernels() {
		b.Run(p.Name(), func(b *testing.B) {
			m := NewDefaultMachine()
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(m, r)
			}
		})
	}
}
