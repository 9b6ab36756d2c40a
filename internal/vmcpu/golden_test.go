package vmcpu

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// digest folds float64 values into an FNV-64a hash of their
// little-endian IEEE bits, so a single changed cycle shows.
func digest(xs ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// tableIKernels are the paper's Table I kernels in the order of
// experiment.BenchApps, which this package cannot import.
func tableIKernels() []Program {
	return []Program{
		QSort{K: 10}, QSort{K: 100}, QSort{K: 10000},
		Corner{}, Edge{}, Smooth{}, Epic{},
	}
}

// goldenKernels are the Table I kernels followed by FFT, MatMul and CRC.
func goldenKernels() []Program {
	return append(tableIKernels(), FFT{}, MatMul{}, CRC{})
}

// collectDigest runs every golden kernel on one machine, kernel i from
// seed i+7 for 200 instances (10 for qsort-10000), and digests the
// cycle counts in kernel order.
func collectDigest(costs Costs, cache CacheConfig) uint64 {
	m := NewMachine(costs, cache)
	var all [][]float64
	for i, p := range goldenKernels() {
		n := 200
		if p.Name() == "qsort-10000" {
			n = 10
		}
		all = append(all, Collect(p, m, n, rand.New(rand.NewSource(int64(i+7)))))
	}
	return digest(all...)
}

// sortDigest sorts sorted, reverse and all-equal inputs of 10, 100 and
// 1000 elements through QSort.Sort and digests each run's cycles, cache
// miss rate and branch miss rate.
func sortDigest(costs Costs, cache CacheConfig) uint64 {
	m := NewMachine(costs, cache)
	var out []float64
	shapes := []func(i, k int) int32{
		func(i, _ int) int32 { return int32(i) },     // sorted
		func(i, k int) int32 { return int32(k - i) }, // reverse
		func(int, int) int32 { return 7 },            // all equal
	}
	for _, k := range []int{10, 100, 1000} {
		for _, shape := range shapes {
			a := make([]int32, k)
			for i := range a {
				a[i] = shape(i, k)
			}
			cyc := QSort{K: k}.Sort(m, a)
			out = append(out, cyc, m.MissRate(), m.BranchMissRate())
		}
	}
	return digest(out)
}

// TestCycleCountsGolden pins every cycle count the machine produces, for
// each shipped cost model on the reference cache and on a small 64×4
// one. The digests were recorded with the float-accumulating machine
// that preceded event counting, so they hold the machine to the traces
// every experiment, golden and checkpoint was built from.
func TestCycleCountsGolden(t *testing.T) {
	caches := map[string]CacheConfig{
		"1024x8": DefaultCache(),
		"64x4":   {Lines: 64, WordsPerLine: 4},
	}
	tests := []struct {
		costs, cache  string
		collect, sort uint64
	}{
		{"default", "1024x8", 0xb9e61d6d685cea85, 0x2ac254577c1783e0},
		{"default", "64x4", 0x74363012a11697f3, 0x90e76c5097846779},
		{"cortexm", "1024x8", 0x5c9a3e55dd8e51c0, 0x98097bdee9950ebf},
		{"cortexm", "64x4", 0x652a5245421bf45f, 0xa3b20400c2799733},
		{"dsp", "1024x8", 0xa693fcbd85bb98a0, 0x69c8ddcf5508ea8d},
		{"dsp", "64x4", 0x9e07b6215029d4a9, 0x28e130794d96b00c},
	}
	for _, tc := range tests {
		t.Run(tc.costs+"/"+tc.cache, func(t *testing.T) {
			c, g := shippedCosts[tc.costs], caches[tc.cache]
			if got := collectDigest(c, g); got != tc.collect {
				t.Errorf("Collect digest = %#016x, want %#016x", got, tc.collect)
			}
			if got := sortDigest(c, g); got != tc.sort {
				t.Errorf("QSort.Sort digest = %#016x, want %#016x", got, tc.sort)
			}
		})
	}
}
