package multicore

import (
	"math/rand"
	"strconv"
	"testing"

	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/policy"
	"chebymc/internal/taskgen"
)

// benchWorkload is one fixed task set that fits on a single core, so the
// same search runs at every core count and the benchmark isolates how the
// per-core GA pipeline scales with m (partition cost + parallel searches
// over smaller sets + composition).
func benchWorkload(b *testing.B) *mc.TaskSet {
	b.Helper()
	ts, err := taskgen.Mixed(rand.New(rand.NewSource(1)), taskgen.Config{}, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkAssignCores measures a full system assignment at m ∈ {1, 4, 8}
// with Workers = m — the serve/mcopt hot path. m=1 is the single-core
// passthrough baseline the determinism contract pins.
func BenchmarkAssignCores(b *testing.B) {
	ts := benchWorkload(b)
	pol := policy.ChebyshevGA{Config: ga.Config{PopSize: 16, Generations: 8}}
	for _, m := range []int{1, 4, 8} {
		b.Run(strconv.Itoa(m), func(b *testing.B) {
			sys, err := New(Config{Cores: m, Policy: pol, Workers: m})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.AssignCtx(b.Context(), ts, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
