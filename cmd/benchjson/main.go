// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON file, so the benchmark trajectory can be tracked
// across PRs (BENCH_<n>.json at the repo root; see `make bench-json`).
// Repeated -count runs of the same benchmark are aggregated per figure
// into the median of their samples, so one outlying run (allocs/op of a
// benchmark whose allocations depend on scheduling) cannot move the
// gated figure.
// Input lines are echoed to stdout so the tool can sit at the end of a
// pipe without hiding the run.
//
// With -compare the tool instead reads two report files and fails (exit 1)
// when any benchmark present in both regressed by more than -tol:
//
//	benchjson -compare -tol 0.15 [-metrics ns,allocs] old.json new.json
//
// -metrics selects which per-op figures are gated: "ns" (ns/op), "allocs"
// (allocs/op), "bytes" (B/op). CI gates on allocs only — allocation counts
// are machine-independent, wall-clock on shared runners is not.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one aggregated benchmark result.
type Benchmark struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Samples     int                `json:"samples"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// accum collects repeated samples of one benchmark.
type accum struct {
	pkg, name  string
	samples    int
	iterations int64
	values     map[string][]float64 // unit → one value per sample
}

func main() {
	out := flag.String("out", "", "output JSON file (default stdout only)")
	compare := flag.Bool("compare", false, "compare two report files given as arguments instead of parsing stdin")
	tol := flag.Float64("tol", 0.15, "with -compare: allowed relative regression per metric")
	metrics := flag.String("metrics", "ns,allocs", "with -compare: comma-separated metrics to gate (ns, allocs, bytes)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(flag.Arg(0), flag.Arg(1), *tol, strings.Split(*metrics, ","), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond tolerance %.0f%%\n", regressions, *tol*100)
			os.Exit(1)
		}
		return
	}
	rep, err := parse(bufio.NewScanner(os.Stdin), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// compareFiles loads two reports and reports how many (benchmark, metric)
// pairs regressed beyond tol. Only benchmarks present in both files are
// gated — the suites may legitimately grow or shrink between PRs — and a
// per-metric table of common benchmarks goes to w.
func compareFiles(oldPath, newPath string, tol float64, metrics []string, w io.Writer) (int, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	sel := map[string]func(Benchmark) float64{}
	for _, m := range metrics {
		switch strings.TrimSpace(m) {
		case "ns":
			sel["ns/op"] = func(b Benchmark) float64 { return b.NsPerOp }
		case "allocs":
			sel["allocs/op"] = func(b Benchmark) float64 { return b.AllocsPerOp }
		case "bytes":
			sel["B/op"] = func(b Benchmark) float64 { return b.BPerOp }
		case "":
		default:
			return 0, fmt.Errorf("unknown metric %q (want ns, allocs, bytes)", m)
		}
	}
	if len(sel) == 0 {
		return 0, fmt.Errorf("no metrics selected")
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Pkg+" "+b.Name] = b
	}
	// Values below this are treated as zero: a benchmark can round a
	// freed-up allocation to 0.33 allocs/op across -count runs.
	const zeroEps = 1e-9
	regressions := 0
	compared := 0
	var units []string
	for u := range sel {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Pkg+" "+nb.Name]
		if !ok {
			continue
		}
		compared++
		for _, unit := range units {
			oldV, newV := sel[unit](ob), sel[unit](nb)
			if oldV <= zeroEps {
				if newV <= zeroEps {
					fmt.Fprintf(w, "ok    %-50s %-10s %12.4g -> %-12.4g\n", nb.Name, unit, oldV, newV)
					continue
				}
				regressions++
				fmt.Fprintf(w, "FAIL  %-50s %-10s %12.4g -> %-12.4g (was zero)\n", nb.Name, unit, oldV, newV)
				continue
			}
			ratio := newV/oldV - 1
			status := "ok   "
			if ratio > tol {
				status = "FAIL "
				regressions++
			}
			fmt.Fprintf(w, "%s %-50s %-10s %12.4g -> %-12.4g (%+.1f%%)\n", status, nb.Name, unit, oldV, newV, ratio*100)
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	return regressions, nil
}

func loadReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// parse consumes bench output, echoing every line to echo when non-nil.
func parse(sc *bufio.Scanner, echo io.Writer) (Report, error) {
	var rep Report
	byKey := map[string]*accum{}
	var order []string
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		// Strip the -GOMAXPROCS suffix go test appends when procs > 1.
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		key := pkg + " " + name
		a := byKey[key]
		if a == nil {
			a = &accum{pkg: pkg, name: name, values: map[string][]float64{}}
			byKey[key] = a
			order = append(order, key)
		}
		a.samples++
		a.iterations += iters
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			a.values[f[i+1]] = append(a.values[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	sort.Strings(order)
	for _, key := range order {
		a := byKey[key]
		b := Benchmark{
			Pkg:         a.pkg,
			Name:        a.name,
			Samples:     a.samples,
			Iterations:  a.iterations,
			NsPerOp:     median(a.values["ns/op"]),
			BPerOp:      median(a.values["B/op"]),
			AllocsPerOp: median(a.values["allocs/op"]),
		}
		for unit, vs := range a.values {
			switch unit {
			case "ns/op", "B/op", "allocs/op":
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = median(vs)
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), or 0 for none. It sorts vs in place.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
