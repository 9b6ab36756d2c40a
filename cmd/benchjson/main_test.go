package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: chebymc/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkRun           	     978	   1273862 ns/op	    5424 B/op	       2 allocs/op
BenchmarkRun           	     900	   1221618 ns/op	    5424 B/op	       2 allocs/op
BenchmarkRun20Tasks-8  	     688	   1860916 ns/op	    5429 B/op	       2 allocs/op
PASS
ok  	chebymc/internal/sim	15.088s
pkg: chebymc/internal/ga
BenchmarkPaperOperators 	     867	   1390465 ns/op	        -2.035 fitness	   91519 B/op	     288 allocs/op
PASS
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("platform = %s/%s", rep.Goos, rep.Goarch)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(rep.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}

	run := byName["BenchmarkRun"]
	if run.Pkg != "chebymc/internal/sim" {
		t.Errorf("BenchmarkRun pkg = %q", run.Pkg)
	}
	if run.Samples != 2 || run.Iterations != 1878 {
		t.Errorf("BenchmarkRun samples=%d iterations=%d", run.Samples, run.Iterations)
	}
	if want := (1273862.0 + 1221618.0) / 2; math.Abs(run.NsPerOp-want) > 1e-9 {
		t.Errorf("BenchmarkRun ns/op = %g, want %g", run.NsPerOp, want)
	}
	if run.AllocsPerOp != 2 {
		t.Errorf("BenchmarkRun allocs/op = %g", run.AllocsPerOp)
	}

	// The -8 GOMAXPROCS suffix must be stripped.
	if _, ok := byName["BenchmarkRun20Tasks"]; !ok {
		t.Error("BenchmarkRun20Tasks-8 not normalised")
	}

	ga := byName["BenchmarkPaperOperators"]
	if ga.Pkg != "chebymc/internal/ga" {
		t.Errorf("pkg switch not tracked: %q", ga.Pkg)
	}
	if got := ga.Metrics["fitness"]; got != -2.035 {
		t.Errorf("custom metric fitness = %g, want -2.035", got)
	}
}

// TestParseMedian checks that repeated samples aggregate to their median:
// one outlying run cannot move the gated allocs/op figure.
func TestParseMedian(t *testing.T) {
	in := `pkg: chebymc/internal/sim
BenchmarkReplicateBatch/width=32-2  	 100	 5000 ns/op	 800 B/op	 66 allocs/op
BenchmarkReplicateBatch/width=32-2  	 100	 4000 ns/op	 700 B/op	 26 allocs/op
BenchmarkReplicateBatch/width=32-2  	 100	 9000 ns/op	 900 B/op	 30 allocs/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Samples != 3 || b.AllocsPerOp != 30 || b.NsPerOp != 5000 || b.BPerOp != 800 {
		t.Errorf("samples=%d allocs/op=%g ns/op=%g B/op=%g, want 3, 30, 5000, 800",
			b.Samples, b.AllocsPerOp, b.NsPerOp, b.BPerOp)
	}
}

func TestParseEchoes(t *testing.T) {
	var sb strings.Builder
	if _, err := parse(bufio.NewScanner(strings.NewReader(sample)), &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sample {
		t.Error("echo output differs from input")
	}
}
