// Package vmcpu is the measurement substrate of the reproduction. The paper
// obtains 20 000 execution-time samples per benchmark from MEET [26], an
// ARM instruction-level simulator; this package substitutes a cost-model
// CPU: a cycle-accounting "machine" with per-operation costs, a
// direct-mapped data cache and a 1-bit branch predictor, on which real
// benchmark kernels (quicksort, corner detection, edge detection, Gaussian
// smoothing and an EPIC-style pyramid coder) execute over randomised
// inputs.
//
// What the paper consumes from MEET is only the *distribution* of cycle
// counts per task (ACET, σ and tail shape). Data-dependent branches,
// input-dependent trip counts and cache behaviour in these kernels generate
// distributions with the same qualitative properties: unimodal bulk near
// the ACET and a long right tail far below the static WCET bound.
package vmcpu

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Costs is the per-operation cycle cost model of a Machine. The default
// values (see DefaultCosts) are typical of a simple in-order embedded core
// in the ARM9 class, the kind of platform MEET models.
//
// A Machine counts events and prices them once, in Cycles. That total is
// the same float64, bit for bit, as adding each cost as it happens
// whenever every cost is a whole number and the total stays below 2⁵³:
// every partial sum is then an exactly representable integer. All three
// shipped models meet that condition.
type Costs struct {
	ALU        float64 // integer add/sub/logic/compare
	Mul        float64 // integer multiply
	Div        float64 // integer divide
	Branch     float64 // correctly predicted branch
	BranchMiss float64 // additional penalty on a mispredicted branch
	Call       float64 // function call overhead
	Ret        float64 // function return overhead
	MemHit     float64 // load/store hitting the data cache
	MemMiss    float64 // load/store missing the data cache (line refill)
}

// DefaultCosts returns the reference cost model used by all experiments.
func DefaultCosts() Costs {
	return Costs{
		ALU:        1,
		Mul:        3,
		Div:        20,
		Branch:     1,
		BranchMiss: 4,
		Call:       2,
		Ret:        2,
		MemHit:     1,
		MemMiss:    40,
	}
}

// CostsCortexM returns a Cortex-M-class cost model: no data cache to
// speak of (flash wait-states make every access mildly expensive but
// uniform), single-cycle multiply, no branch predictor beyond static.
func CostsCortexM() Costs {
	return Costs{
		ALU:        1,
		Mul:        1,
		Div:        12,
		Branch:     1,
		BranchMiss: 2,
		Call:       3,
		Ret:        3,
		MemHit:     2,
		MemMiss:    6,
	}
}

// CostsDSP returns a DSP-class cost model: single-cycle MACs, wide fast
// local memory, expensive branches (deep pipeline).
func CostsDSP() Costs {
	return Costs{
		ALU:        1,
		Mul:        1,
		Div:        8,
		Branch:     1,
		BranchMiss: 8,
		Call:       4,
		Ret:        4,
		MemHit:     1,
		MemMiss:    24,
	}
}

// WorstMem returns the pessimistic per-access memory cost (always a miss),
// the assumption the IPET analyser makes.
func (c Costs) WorstMem() float64 { return c.MemMiss }

// WorstBranch returns the pessimistic per-branch cost (always
// mispredicted), the assumption the IPET analyser makes.
func (c Costs) WorstBranch() float64 { return c.Branch + c.BranchMiss }

// WorstALU returns the pessimistic per-ALU-op cost: the analyser assumes
// no pipeline overlap, so every result stalls its consumer for a cycle.
func (c Costs) WorstALU() float64 { return 2 * c.ALU }

// WorstMul returns the pessimistic per-multiply cost under the same
// no-overlap assumption.
func (c Costs) WorstMul() float64 { return 2 * c.Mul }

// CacheConfig describes the direct-mapped data cache of a Machine.
type CacheConfig struct {
	Lines        int // number of cache lines (power of two required)
	WordsPerLine int // words per line, power of two required; addresses are word-granular
}

// DefaultCache returns the reference cache geometry: 1024 lines × 8 words
// (32 KiB of 4-byte words, a typical embedded L1 data cache).
func DefaultCache() CacheConfig {
	return CacheConfig{Lines: 1024, WordsPerLine: 8}
}

// Machine is a cycle-accounting virtual CPU. Kernels report their abstract
// operations (ALU ops, multiplies, loads with word addresses, branches with
// site identifiers); the machine counts them, resolving each access
// against its cache and each branch against its predictor, and Cycles
// prices the counts with the cost model.
//
// A Machine is not safe for concurrent use; create one per goroutine.
type Machine struct {
	costs Costs

	// Direct-mapped cache: word address a lives in line a>>lineShift,
	// held in slot line&slotMask. tags[slot] is the resident line, or −1
	// for an invalid slot.
	lineShift uint
	slotMask  int64
	tags      []int64

	// 1-bit dynamic branch predictor: pred[site] is the last outcome at
	// site (false, not-taken, before the first). It grows to the highest
	// site seen.
	pred []bool

	nextBase int64 // bump allocator for abstract array placement

	// event counts since the last Reset
	alu, mul, div, calls, rets int64
	memHits, memMisses         int64
	branches, branchMiss       int64
}

// NewMachine returns a Machine with the given cost model and cache
// geometry. Zero/negative cache dimensions fall back to DefaultCache; a
// dimension that is not a power of two panics.
func NewMachine(costs Costs, cache CacheConfig) *Machine {
	if cache.Lines <= 0 || cache.WordsPerLine <= 0 {
		cache = DefaultCache()
	}
	if bits.OnesCount(uint(cache.Lines)) != 1 || bits.OnesCount(uint(cache.WordsPerLine)) != 1 {
		panic(fmt.Sprintf("vmcpu: cache geometry %d lines × %d words per line: both must be powers of two",
			cache.Lines, cache.WordsPerLine))
	}
	m := &Machine{
		costs:     costs,
		lineShift: uint(bits.TrailingZeros(uint(cache.WordsPerLine))),
		slotMask:  int64(cache.Lines - 1),
		tags:      make([]int64, cache.Lines),
	}
	m.Reset()
	return m
}

// NewDefaultMachine returns a Machine with DefaultCosts and DefaultCache.
func NewDefaultMachine() *Machine { return NewMachine(DefaultCosts(), DefaultCache()) }

// Costs returns the machine's cost model.
func (m *Machine) Costs() Costs { return m.costs }

// Reset clears the event counts, cache, branch predictor and allocator,
// modelling a cold start of a new job instance. It allocates nothing.
func (m *Machine) Reset() {
	for i := range m.tags {
		m.tags[i] = -1
	}
	clear(m.pred)
	m.nextBase = 0
	m.alu, m.mul, m.div, m.calls, m.rets = 0, 0, 0, 0, 0
	m.memHits, m.memMisses = 0, 0
	m.branches, m.branchMiss = 0, 0
}

// Cycles prices the events counted since the last Reset with the cost
// model (see Costs for when this is exact).
func (m *Machine) Cycles() float64 {
	c := &m.costs
	return float64(m.alu)*c.ALU + float64(m.mul)*c.Mul + float64(m.div)*c.Div +
		float64(m.calls)*c.Call + float64(m.rets)*c.Ret +
		float64(m.memHits)*c.MemHit + float64(m.memMisses)*c.MemMiss +
		float64(m.branches)*c.Branch + float64(m.branchMiss)*c.BranchMiss
}

// MissRate reports the data-cache miss rate since the last Reset, or 0
// when no memory access happened.
func (m *Machine) MissRate() float64 {
	n := m.memHits + m.memMisses
	if n == 0 {
		return 0
	}
	return float64(m.memMisses) / float64(n)
}

// BranchMissRate reports the branch misprediction rate since the last
// Reset, or 0 when no branch executed.
func (m *Machine) BranchMissRate() float64 {
	if m.branches == 0 {
		return 0
	}
	return float64(m.branchMiss) / float64(m.branches)
}

// Alloc reserves n abstract words and returns their base address. Arrays
// of distinct kernels are placed contiguously so that cache conflicts are
// realistic. A one-line pad keeps arrays from sharing a line.
func (m *Machine) Alloc(n int64) int64 {
	base := m.nextBase
	m.nextBase += n + 1<<m.lineShift
	return base
}

// ALU accounts for n integer ALU operations.
func (m *Machine) ALU(n int) { m.alu += int64(n) }

// MulOp accounts for n integer multiplies.
func (m *Machine) MulOp(n int) { m.mul += int64(n) }

// DivOp accounts for n integer divides.
func (m *Machine) DivOp(n int) { m.div += int64(n) }

// Call accounts for a function call.
func (m *Machine) Call() { m.calls++ }

// Ret accounts for a function return.
func (m *Machine) Ret() { m.rets++ }

// access resolves one data-cache access at the non-negative word address
// addr.
func (m *Machine) access(addr int64) {
	line := addr >> (m.lineShift & 63) // the mask drops Go's shift-range check
	slot := &m.tags[line&m.slotMask]
	if *slot == line {
		m.memHits++
		return
	}
	*slot = line
	m.memMisses++
}

// Load accounts for a load from word address addr.
func (m *Machine) Load(addr int64) { m.access(addr) }

// Store accounts for a store to word address addr (write-allocate).
func (m *Machine) Store(addr int64) { m.access(addr) }

// Branch accounts for a conditional branch at the given static site
// (a small non-negative integer), resolving to taken. A 1-bit dynamic
// predictor per site, initialised to not-taken, mispredicts whenever the
// outcome differs from the last one.
func (m *Machine) Branch(site int, taken bool) {
	if site >= len(m.pred) {
		m.pred = append(m.pred, make([]bool, site+1-len(m.pred))...)
	}
	m.branches++
	if m.pred[site] != taken {
		m.pred[site] = taken
		m.branchMiss++
	}
}

// Program is a benchmark kernel runnable on a Machine. Run must generate a
// fresh random input using r, execute the kernel, and return the cycles it
// consumed. Implementations reset the machine themselves.
type Program interface {
	// Name identifies the kernel, e.g. "qsort-100".
	Name() string
	// Run executes one job instance on m with randomness from r and
	// returns its cycle count.
	Run(m *Machine, r *rand.Rand) float64
}

// Collect runs p for n job instances on m and returns the n cycle counts.
// It is the vmcpu analogue of the paper's "execute 20000 instances with
// MEET".
func Collect(p Program, m *Machine, n int, r *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Run(m, r)
	}
	return out
}
