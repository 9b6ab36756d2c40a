package sim

import (
	"fmt"
	"math/rand"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// Protocol selects the mode-switch protocol: what an HC overrun degrades
// and when the degradation ends. The zero value is SystemLevel, the
// paper's Section III model, and a zero-value Config is bit-identical to
// the pre-protocol simulator (pinned by golden_test.go).
type Protocol int

const (
	// SystemLevel is the paper's protocol: one HC overrun flips the whole
	// system to HI mode, every LC task is dropped or degraded, and the
	// system returns to LO once no ready HC job remains.
	SystemLevel Protocol = iota
	// TaskLevel is the Boudjadar-style protocol: an overrun of HC task i
	// degrades only i's interference set — the LC tasks whose period is at
	// least T_i, the ones an overrunning job of i can actually delay past
	// their deadlines. Task i's own pending jobs recover their real
	// deadlines; the group returns to LO independently at its own idle
	// instant (no ready job of task i left). Other HC tasks keep their
	// virtual deadlines and may open their own groups concurrently.
	TaskLevel
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case SystemLevel:
		return "system-level"
	case TaskLevel:
		return "task-level"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ProtocolByName resolves the flag/request spelling of a protocol. The
// empty string is the zero value, SystemLevel.
func ProtocolByName(name string) (Protocol, error) {
	switch name {
	case "", "system-level", "system":
		return SystemLevel, nil
	case "task-level", "task":
		return TaskLevel, nil
	}
	return 0, fmt.Errorf("sim: unknown protocol %q (want system-level or task-level)", name)
}

// ReleaseModel generates the separation between successive releases of
// one task. A nil model (the Config zero value) and Periodic both mean
// strictly periodic releases and draw nothing from the RNG stream, so a
// zero-value Config keeps every frozen golden bit-identical. Models that
// sample must draw from r exactly once per Gap call (or not at all) so
// replications stay deterministic for a given seed.
type ReleaseModel interface {
	// Gap returns the separation between a release of t and the next.
	// Implementations must return a value ≥ t.Period: the analysis treats
	// the period as the minimum inter-arrival time.
	Gap(r *rand.Rand, t *mc.Task) float64
	// String names the model for flags, digests and tables.
	String() string
}

// Periodic releases every task strictly at its period — the paper's
// model and the zero value of the release-model axis.
type Periodic struct{}

// Gap implements ReleaseModel: always exactly the period, no RNG draw.
func (Periodic) Gap(_ *rand.Rand, t *mc.Task) float64 { return t.Period }

// String implements fmt.Stringer.
func (Periodic) String() string { return "periodic" }

// Sporadic spaces successive releases by MinSep·T plus a non-negative
// draw from Jitterer: the period becomes a minimum inter-arrival time,
// the sporadic task model. Draws come from the per-run RNG stream, one
// per release, before that release's execution-time draw.
type Sporadic struct {
	// MinSep scales the period floor; 0 defaults to 1. Values below 1
	// are rejected by New — inter-arrival times must stay ≥ T.
	MinSep float64
	// Jitterer adds max(0, draw) on top of the floor; nil adds nothing.
	Jitterer dist.Dist
}

// Gap implements ReleaseModel.
func (s Sporadic) Gap(r *rand.Rand, t *mc.Task) float64 {
	f := s.MinSep
	if f == 0 {
		f = 1
	}
	gap := f * t.Period
	if s.Jitterer != nil {
		if j := s.Jitterer.Sample(r); j > 0 {
			gap += j
		}
	}
	return gap
}

// String implements fmt.Stringer.
func (s Sporadic) String() string { return "sporadic" }

// releaseIsPeriodic reports whether m never deviates from the period —
// the class a shared release table can serve.
func releaseIsPeriodic(m ReleaseModel) bool {
	if m == nil {
		return true
	}
	_, ok := m.(Periodic)
	return ok
}

// DefaultSporadicJitter is the inter-arrival slack span the spelling
// "sporadic" selects (ReleaseByName): on top of the period floor, each
// gap adds a uniform draw from [0, DefaultSporadicJitter]. Sized for
// taskgen's default 100–900 period range — 3–25% mean slack.
const DefaultSporadicJitter = 50.0

// DefaultSporadic is the sporadic model the spelling "sporadic"
// resolves to: inter-arrival T + U(0, DefaultSporadicJitter).
func DefaultSporadic() Sporadic {
	u, err := dist.NewUniform(0, DefaultSporadicJitter)
	if err != nil {
		panic(err) // static bounds; cannot fail
	}
	return Sporadic{Jitterer: u}
}

// ReleaseByName resolves the flag/request spelling of a release model.
// The empty string is the zero value, strictly periodic releases.
func ReleaseByName(name string) (ReleaseModel, error) {
	switch name {
	case "", "periodic":
		return Periodic{}, nil
	case "sporadic":
		return DefaultSporadic(), nil
	}
	return nil, fmt.Errorf("sim: unknown release model %q (want periodic or sporadic)", name)
}

// DefaultHorizon is the simulated span Defaults picks: long enough that
// steady-state rates dominate start-up transients for period ranges in
// the tens to hundreds.
const DefaultHorizon = 20000.0

// Defaults returns a fully-populated Config with every axis at its
// documented default: the paper's system-level protocol, strictly
// periodic releases, the DropAll policy and ρ = 0.5 (the Liu value,
// used only under Degrade). Mirrors ga.Defaults(): construction sites
// override what they mean to change instead of relying on zero values.
// Defaults() with no overrides is behaviourally identical to a zero
// Config with Horizon set — the explicit fields are the zero values'
// documented meanings.
func Defaults() Config {
	return Config{
		Horizon:       DefaultHorizon,
		Policy:        DropAll,
		DegradeFactor: 0.5,
		Protocol:      SystemLevel,
		Release:       Periodic{},
	}
}

// TruncNormalExec builds the execution-time model the experiments and
// CLIs simulate: for every HC task with σ > 0, its profile's normal
// truncated to [0, C^HI]. Other tasks get no entry and execute for
// exactly C^LO. It fails when a profile cannot be truncated that way —
// an ACET more than 8σ above C^HI.
func TruncNormalExec(ts *mc.TaskSet) (map[int]dist.Dist, error) {
	exec := make(map[int]dist.Dist)
	for _, t := range ts.Tasks {
		if t.Crit != mc.HC || t.Profile.Sigma <= 0 {
			continue
		}
		d, err := dist.NewTruncNormal(t.Profile.ACET, t.Profile.Sigma, 0, t.CHI)
		if err != nil {
			return nil, fmt.Errorf("sim: task %d: %w", t.ID, err)
		}
		exec[t.ID] = d
	}
	return exec, nil
}
