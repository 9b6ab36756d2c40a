package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one row of a metric table. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer rows carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every row; README.md gives each row's meaning
// per workload. fail_ratio is a per-layer row because it is 0 on a
// correct run, and the result line's "failed" field carries it. max_rps
// is left out: on a shared 2-CPU machine the highest rate meeting a p99
// limit does not repeat within a tenth.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer is the traced run's ledger, named after the modules the
// benchmark calls. A layer a workload does not drive reports 0.
var perLayer = []metricDef{
	{Name: "trace.self_s", Unit: "s", Better: "lower"},
	{Name: "trace.samples", Unit: "count", Better: "higher"},
	{Name: "trace.ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "ipet.self_s", Unit: "s", Better: "lower"},
	{Name: "fit.self_s", Unit: "s", Better: "lower"},
	{Name: "fit.calls", Unit: "count", Better: "higher"},
	{Name: "policy.self_s", Unit: "s", Better: "lower"},
	{Name: "policy.calls", Unit: "count", Better: "higher"},
	{Name: "ga.fitness_evals", Unit: "count", Better: "lower"},
	{Name: "ga.generations", Unit: "count", Better: "lower"},
	{Name: "ga.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ga.delta_eval_ratio", Unit: "ratio", Better: "higher"},
	{Name: "edfvd.self_s", Unit: "s", Better: "lower"},
	{Name: "edfvd.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dbf.self_s", Unit: "s", Better: "lower"},
	{Name: "dbf.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dbf.only_admits", Unit: "count", Better: "higher"},
	{Name: "multicore.self_s", Unit: "s", Better: "lower"},
	{Name: "multicore.partition_rejected", Unit: "count", Better: "lower"},
	{Name: "multicore.cores_used_mean", Unit: "count", Better: "higher"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.runs", Unit: "count", Better: "higher"},
	{Name: "sim.jobs", Unit: "count", Better: "higher"},
	{Name: "sim.ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "sim.lockstep_share", Unit: "ratio", Better: "higher"},
	{Name: "sim.preemptions", Unit: "count", Better: "lower"},
	{Name: "sim.mode_switches", Unit: "count", Better: "lower"},
	{Name: "sim.hc_misses", Unit: "count", Better: "lower"},
	{Name: "par.busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.self_s", Unit: "s", Better: "lower"},
	{Name: "serve.l1_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.l2_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.l2_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.flight_shared", Unit: "count", Better: "higher"},
	{Name: "serve.queue_rejected", Unit: "count", Better: "lower"},
	{Name: "http.self_s", Unit: "s", Better: "lower"},
	{Name: "http.overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mix.l1_share", Unit: "ratio", Better: "higher"},
	{Name: "mix.l2_share", Unit: "ratio", Better: "higher"},
	{Name: "mix.miss_share", Unit: "ratio", Better: "higher"},
	{Name: "mix.fit_share", Unit: "ratio", Better: "higher"},
	{Name: "rt.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "other.self_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is the --seconds budget BENCHMARK.json asks runs to use.
const runSeconds = 20

// manifest is the BENCHMARK.json schema.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWL  `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []manifestRow `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{Name: w.name, Why: w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestRow{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// writeManifest prints BENCHMARK.json as the metric tables define it.
func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// envStamp identifies the machine and build a result came from, so
// results from different machines are never compared.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

func (e envStamp) json() string {
	b, _ := json.Marshal(e) // a struct of strings and ints always marshals
	return string(b)
}

func stampEnv() envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Rev:        gitRev("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev resolves HEAD from the .git directory under root without
// running git; a checkout without one reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak-resident-set count, so the
// next peakRSSMB covers one rep: the median of per-rep peaks does not
// hang on where one rep's garbage collections happened to fall. Where
// the kernel does not allow it the count runs from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// repeatRuns is the repeatability mode: k child processes of this binary
// with consecutive seeds, then median, quartiles and min/max per metric.
// Children run one after another so they never share the machine.
func repeatRuns(ctx context.Context, w workload, seed int64, seconds float64, trace, k int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: bad result line: %v\n", s, err)
			return 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "%-30s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, n := range names {
		vs := values[n]
		q1, med, q3 := quartiles(vs)
		lo, hi := minMax(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(&tb, "%-30s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", n, units[n], med, q1, q3, lo, hi, spread)
		total.Metrics[n] = metricValue{Value: med, Unit: units[n]}
	}
	fmt.Fprintf(stdout, "repeat %s: %d runs, seeds %d..%d, %gs each, trace=%d\n%s", w.name, k, seed, seed+int64(k)-1, seconds, trace, tb.String())
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
