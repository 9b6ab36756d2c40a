// Command perfbench is the repository benchmark. It runs one named
// workload of the trace → fit → Chebyshev/GA assignment → EDF-VD/DBF
// verdict → DES → serve pipeline from a seed, checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end table (measured with
// tracing off); with -trace 1 they are the per-layer table, taken from a
// separate traced run that records spans around every call the benchmark
// makes into the program's modules and reads the program's obs counters.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --repeat 5
//	bash perfbench/run.sh --manifest > BENCHMARK.json
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's resolved flags.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// workers is the fan-out of the untraced runs and the number of
	// client connections serve-mix opens; nproc by default.
	workers int
	// spansDir receives the traced run's spans; empty keeps them in
	// memory only.
	spansDir string
	// smoke shrinks every workload to a size that runs in about a second;
	// the package's tests use it, the benchmark command never does.
	smoke bool
}

// outcome is what one workload invocation reports.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64
	// notes are human-readable lines printed before the result: result
	// digests, the ledger table.
	notes []string
	// ledger is the traced run's span ledger (traced runs only).
	ledger *ledger
}

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, opt options) (*outcome, error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "sweep-paper",
		why:  "the researcher's job: vmcpu traces, fits, GA assignment, Eq. 8 and the lockstep DES at the paper's default axes",
		run:  runSweepPaper,
	},
	{
		name: "sweep-axes",
		why:  "4-core worst-fit partitioning with a GA per core, and a one-core uniform-n rescue the demand test admits beyond Eq. 8, replayed by the scalar DES with task-level mode switches",
		run:  runSweepAxes,
	},
	{
		name: "serve-mix",
		why:  "the operator's job: an open loop over loopback HTTP with L1 and L2 cache hits, cold GA assignments and fit uploads",
		run:  runServeMix,
	},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep-paper, sweep-axes or serve-mix")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", runSeconds, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0 for the untraced end-to-end run, 1 for the traced per-layer run")
	repeat := fs.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, … in child processes and print median, quartiles and min/max per metric")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	manifest := fs.Bool("manifest", false, "print the BENCHMARK.json the metric tables define and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	env := stampEnv()
	fmt.Fprintf(stdout, "env %s\n", env.json())
	if *repeat > 0 {
		return repeatRuns(ctx, w, *seed, *seconds, *traceFlag, *repeat, stdout, stderr)
	}

	opt := options{
		seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		workers: runtime.NumCPU(), spansDir: *spans,
	}
	out, err := w.run(ctx, opt)
	if err == nil {
		err = emit(stdout, opt, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// emit prints the workload's notes, its failed checks and the result
// line.
func emit(stdout io.Writer, opt options, out *outcome) error {
	res, err := finish(opt, out)
	if err != nil {
		return err
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for i, f := range out.failures {
		if i == 20 {
			fmt.Fprintf(stdout, "check: … %d more failures\n", len(out.failures)-i)
			break
		}
		fmt.Fprintf(stdout, "check: FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks that the workload reported exactly the table the mode
// promises and builds the result line.
func finish(opt options, out *outcome) (result, error) {
	defs := endToEnd
	if opt.traced {
		defs = perLayer
		out.metrics["fail_ratio"] = ratio(float64(len(out.failures)), float64(out.attempted))
	}
	if out.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return result{}, fmt.Errorf("workload did not report metric %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %g", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for k := range out.metrics {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("workload reported metrics outside its table: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
