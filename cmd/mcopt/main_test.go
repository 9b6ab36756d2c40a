package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"chebymc/internal/mc"
)

func writeTaskSet(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ts.json")
	data := `{"tasks":[
  {"id":1,"name":"ctl","crit":"HC","c_lo":20,"c_hi":60,"period":100,"profile":{"acet":15,"sigma":2.5}},
  {"id":2,"name":"log","crit":"LC","c_lo":10,"c_hi":10,"period":50}
]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPolicies(t *testing.T) {
	path := writeTaskSet(t)
	for _, pol := range []string{"ga", "uniform", "lambda"} {
		for _, bound := range []string{"", "vp"} {
			if err := run(context.Background(), path, pol, 5, 0.25, bound, 1, "", "", "", "", 1, 2, 0, 1, 0); err != nil {
				t.Fatalf("%s (bound %q): %v", pol, bound, err)
			}
		}
	}
}

func TestRunWithSimulationAndOutput(t *testing.T) {
	in := writeTaskSet(t)
	out := filepath.Join(t.TempDir(), "opt.json")
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 1, "", "", "", out, 1, 2, 20000, 3, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := mc.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	hc := ts.ByCrit(mc.HC)[0]
	// C^LO rewritten to ACET + 4σ = 25.
	if hc.CLO != 25 {
		t.Errorf("optimised C^LO = %g, want 25", hc.CLO)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTaskSet(t)
	if err := run(context.Background(), "", "ga", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("missing -in must error")
	}
	if err := run(context.Background(), path, "bogus", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("unknown policy must error")
	}
	if err := run(context.Background(), path+"x", "ga", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("missing file must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "bogus", 1, "", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("unknown bound must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "", 1, "", "per-task", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("unknown protocol must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "", 1, "", "", "bursty", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("unknown release model must error")
	}
}

func TestRunMulticore(t *testing.T) {
	in := writeTaskSet(t)
	out := filepath.Join(t.TempDir(), "opt.json")
	// Two cores with worst-fit, simulated, with the optimised set written
	// out: the full multicore CLI surface.
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 2, "wf", "", "", out, 1, 2, 5000, 3, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := mc.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if hc := ts.ByCrit(mc.HC)[0]; hc.CLO != 25 {
		t.Errorf("optimised C^LO = %g, want 25", hc.CLO)
	}
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 0, "", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("cores=0 must error")
	}
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 2, "bogus", "", "", "", 1, 2, 0, 1, 0); err == nil {
		t.Error("unknown heuristic must error")
	}
}
