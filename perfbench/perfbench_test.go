package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesTables pins the committed BENCHMARK.json to the
// metric tables the program prints.
func TestManifestMatchesTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

// smoke runs one workload at its tiny size and returns its result line
// and outcome.
func smoke(t *testing.T, name string, traced bool) (result, *outcome) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 7, seconds: 1, traced: traced, workers: 2, smoke: true}
	out, err := w.run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, opt, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	return res, out
}

// TestSmoke runs every workload in both modes at a tiny size: the output
// checks pass and every metric of the mode's table prints with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode, defs := "trace=0", endToEnd
			if traced {
				mode, defs = "trace=1", perLayer
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				res, out := smoke(t, w.name, traced)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("checks failed: %v", out.failures)
				}
				if res.Attempted < 1 {
					t.Fatalf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, the table has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestLedgerAddsUp checks the traced run's books: every layer's self
// time is non-negative, and the self times plus other.self_s, which is
// computed from the span intervals alone, add up to the traced wall.
func TestLedgerAddsUp(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := smoke(t, w.name, true)
			l := out.ledger
			if l == nil {
				t.Fatal("traced run kept no ledger")
			}
			for layer, d := range l.self {
				if d < 0 {
					t.Errorf("layer %s self time %v < 0", layer, d)
				}
			}
			var self time.Duration
			for _, d := range l.self {
				self += d
			}
			if diff := (self + l.other - l.wall).Seconds(); diff > 0.02*l.wall.Seconds() || diff < -0.02*l.wall.Seconds() {
				t.Errorf("self times %v + other %v = %v, wall %v", self, l.other, self+l.other, l.wall)
			}
			if l.other < -l.wall/50 {
				t.Errorf("other.self_s %v < 0: spans overlap", l.other)
			}
			// The printed per-layer figures are this ledger's: every
			// printed self time, other.self_s included, adds up to the
			// traced wall too.
			var printed float64
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".self_s") {
					printed += m.Value
				}
			}
			if got, want := printed, l.wall.Seconds(); got > want*1.02 || got < want*0.98 {
				t.Errorf("printed self times sum to %gs, traced wall %gs", got, want)
			}
		})
	}
}

func TestUnionLength(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10, Parent: -1},
		{Start: 2, End: 5, Parent: 0},
		{Start: 20, End: 30, Parent: -1},
		{Start: 25, End: 35, Parent: -1},
	}
	if got := unionLength(spans); got != 25 {
		t.Errorf("unionLength = %d, want 25", got)
	}
	tr := newTracer()
	tr.spans = spans[:3]
	l, err := tr.ledgerOf(40)
	if err != nil {
		t.Fatal(err)
	}
	if l.self[""] != 20 || l.other != 20 {
		t.Errorf("self %v other %v, want 20ns and 20ns", l.self[""], l.other)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestReencodeIsUniqueAndEquivalent(t *testing.T) {
	base := []byte(`{"seed":1,"tasks":[]}`)
	seen := map[string]bool{}
	for n := uint64(0); n < 64; n++ {
		b := reencode(base, n)
		if seen[string(b)] {
			t.Fatalf("variant %d repeats an earlier one", n)
		}
		seen[string(b)] = true
		var v struct {
			Seed int `json:"seed"`
		}
		if err := json.Unmarshal(b, &v); err != nil || v.Seed != 1 {
			t.Fatalf("variant %d = %q does not decode to the same request: %v", n, b, err)
		}
	}
}
