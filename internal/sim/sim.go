// Package sim is the runtime substrate: a discrete-event simulator of a
// preemptive uniprocessor scheduled by EDF-VD, implementing the paper's
// system operational model (Section III). The system starts in LO mode;
// when a high-criticality job exceeds its optimistic budget C^LO the
// system switches to HI mode, low-criticality tasks are dropped (Baruah
// [1]) or degraded (Liu [2]), and the system returns to LO mode once no
// ready HC job remains.
//
// The simulator closes the loop on the paper's design-time analysis: given
// an assignment produced by internal/core it measures the *observed*
// overrun and mode-switch rates, LC service and deadline behaviour, which
// the analytical bounds must dominate.
//
// One event loop serves every configuration. Jobs live in
// structure-of-arrays slots indexed by int32 with a free list, the ready
// set is an int32 heap ordered by (virtual deadline, task ID), and the
// next release comes either from a per-run release heap or — when the
// configuration's releases draw nothing from the RNG — from a periodic
// release table shared by every replication (see heap.go). Every
// tie-break is chosen so that results — metrics, per-task metrics, event
// log and RNG draw order — are bit-identical to the straightforward O(n)
// formulation (pinned by golden_test.go).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"chebymc/internal/dist"
	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
)

// Policy selects the HI-mode treatment of LC tasks.
type Policy int

const (
	// DropAll discards all LC jobs in HI mode (Baruah et al. [1]).
	DropAll Policy = iota
	// Degrade keeps LC jobs running with budgets scaled by the degrade
	// factor (Liu et al. [2]).
	Degrade
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case DropAll:
		return "drop-all"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config parameterises a simulation run.
type Config struct {
	// Horizon is the simulated time span. Must be positive.
	Horizon float64
	// Policy is the HI-mode LC treatment.
	Policy Policy
	// DegradeFactor is ρ for the Degrade policy (0 < ρ ≤ 1). Ignored by
	// DropAll. Defaults to 0.5, the value in [2].
	DegradeFactor float64
	// Exec maps task ID → execution-time distribution. HC entries are
	// clamped to [0, C^HI]; LC entries to [0, C^LO]. Tasks without an
	// entry execute for exactly C^LO.
	Exec map[int]dist.Dist
	// X is the virtual-deadline factor for HC tasks in LO mode. When 0
	// it is computed from the EDF-VD analysis.
	X float64
	// Seed seeds the simulation's random source.
	Seed int64
	// MaxEvents caps the schedule-event log; 0 disables logging.
	MaxEvents int
	// Jitter maps task ID → an inter-release jitter distribution:
	// successive releases are separated by the release model's gap +
	// max(0, draw). Tasks without an entry follow the release model
	// exactly.
	Jitter map[int]dist.Dist
	// Protocol selects the mode-switch protocol. The zero value,
	// SystemLevel, is the paper's whole-system switch and is
	// bit-identical to the pre-protocol simulator.
	Protocol Protocol
	// Release generates inter-release separations. nil and Periodic{}
	// both mean strictly periodic releases with no RNG draw — the zero
	// value keeps every frozen golden bit-identical.
	Release ReleaseModel
}

// Metrics aggregates what happened during a run.
type Metrics struct {
	// Time is the simulated span.
	Time float64
	// HCReleased / LCReleased count released jobs per criticality.
	HCReleased, LCReleased int
	// HCCompleted / LCCompleted count jobs finishing before their
	// deadline.
	HCCompleted, LCCompleted int
	// HCMisses / LCMisses count deadline misses of completed jobs.
	HCMisses, LCMisses int
	// LCDropped counts LC jobs discarded by a mode switch or released
	// into HI mode under DropAll.
	LCDropped int
	// LCDegraded counts LC jobs that ran with a degraded budget.
	LCDegraded int
	// Overruns counts HC jobs whose execution exceeded C^LO.
	Overruns int
	// ModeSwitches counts LO→HI transitions (under TaskLevel: group
	// openings).
	ModeSwitches int
	// TimeInHI is the total time spent in HI mode (under TaskLevel: time
	// with at least one degraded group active).
	TimeInHI float64
	// DegradedGroups is the TaskLevel histogram of time spent with
	// exactly k+1 groups simultaneously degraded; the last bucket
	// saturates (≥ 4 groups). All-zero under SystemLevel, and a
	// fixed-size array so Metrics stays comparable — the golden suites
	// compare runs with ==.
	DegradedGroups [4]float64
	// BusyTime is the total time the processor was executing jobs.
	BusyTime float64
}

// Utilisation reports BusyTime / Time.
func (m Metrics) Utilisation() float64 {
	if m.Time == 0 {
		return 0
	}
	return m.BusyTime / m.Time
}

// OverrunRate reports Overruns / HCReleased, the empirical counterpart of
// the per-job Theorem 1 bound (aggregated over tasks).
func (m Metrics) OverrunRate() float64 {
	if m.HCReleased == 0 {
		return 0
	}
	return float64(m.Overruns) / float64(m.HCReleased)
}

// LCServiceRate reports the fraction of released LC jobs that completed.
func (m Metrics) LCServiceRate() float64 {
	if m.LCReleased == 0 {
		return 0
	}
	return float64(m.LCCompleted) / float64(m.LCReleased)
}

// Simulator runs one task set. Create with New, run with Run.
type Simulator struct {
	ts    *mc.TaskSet
	tasks []mc.Task // ts.Tasks
	cfg   Config

	// Per-task state resolved once in New into dense slices (index =
	// position in ts.Tasks) so the event loop never consults a map.
	// Read-only after New, and shared by clones.
	exec    []dist.Dist // nil entry → executes for exactly C^LO
	jitter  []dist.Dist // nil entry → strictly periodic releases
	hc      []bool      // task is HC
	ids     []int       // task IDs, the EDF-VD tie-break
	idIndex map[int]int // task ID → dense index
	// interf[i] holds, under TaskLevel, the dense indices of the LC tasks
	// in HC task i's interference set: those with Period ≥ T_i, the tasks
	// whose slack an overrunning job of i actually consumes
	// (shorter-period LC jobs are due before the extra demand lands).
	interf    [][]int32
	taskLevel bool // cfg.Protocol == TaskLevel
	// table is the shared periodic release schedule, or nil when
	// releases come from relHeap.
	table *releaseTable

	// perTask holds the per-task metrics of the most recent Run in dense
	// task order; nil until Run is called.
	perTask []TaskMetrics
	// events holds the schedule-event log of the most recent Run.
	events []Event

	// Everything below is run state, rewritten by reset and reused across
	// runs: the RNG is re-seeded, the slot arrays and heaps keep their
	// capacity.
	rng     *rand.Rand
	relPos  int // next unreleased table entry
	relHeap releaseHeap
	slots   jobSlots
	ready   []int32 // EDF-VD heap of ready slots
	order   []int32 // ready slots in insertion order (swap-remove on exit)

	m           Metrics
	now         float64
	mode        mc.Mode
	hcReady     int
	lastHIEnter float64
	// Preemption accounting for the run-level telemetry (recordRun): when
	// a release interrupts the running job its slot is remembered and
	// compared against the next selection. Kept out of Metrics so the
	// golden per-run outputs are untouched.
	preemptions uint64
	interrupted int32

	// TaskLevel state (nil slices under SystemLevel). cover[l] counts the
	// open groups covering LC task l; hcReadyBy[i] counts ready jobs of
	// task i so each group can detect its own idle instant. activeGroups
	// counts simultaneously degraded groups, histAt marks the last
	// DegradedGroups advance and sysEnter the 0→1 transition, so
	// Metrics.TimeInHI means "some group active".
	taskHI       []bool
	hcReadyBy    []int
	cover        []int
	groupEnter   []float64
	coverEnter   []float64
	newCover     []bool
	activeGroups int
	histAt       float64
	sysEnter     float64
}

// New validates the configuration and returns a Simulator.
func New(ts *mc.TaskSet, cfg Config) (*Simulator, error) {
	if ts == nil {
		return nil, errors.New("sim: nil task set")
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %g must be positive", cfg.Horizon)
	}
	if cfg.Policy != DropAll && cfg.Policy != Degrade {
		return nil, fmt.Errorf("sim: unknown policy %d", int(cfg.Policy))
	}
	if cfg.DegradeFactor == 0 {
		cfg.DegradeFactor = 0.5
	}
	if cfg.DegradeFactor < 0 || cfg.DegradeFactor > 1 {
		return nil, fmt.Errorf("sim: degrade factor %g out of (0, 1]", cfg.DegradeFactor)
	}
	if cfg.X == 0 {
		cfg.X = edfvd.Schedulable(ts).X
	}
	if cfg.X <= 0 || cfg.X > 1 {
		return nil, fmt.Errorf("sim: virtual-deadline factor %g out of (0, 1]", cfg.X)
	}
	if cfg.Protocol != SystemLevel && cfg.Protocol != TaskLevel {
		return nil, fmt.Errorf("sim: unknown protocol %d", int(cfg.Protocol))
	}
	if sp, ok := cfg.Release.(Sporadic); ok && sp.MinSep != 0 && sp.MinSep < 1 {
		return nil, fmt.Errorf("sim: sporadic MinSep %g must be ≥ 1 — periods are minimum inter-arrival times", sp.MinSep)
	}
	n := len(ts.Tasks)
	s := &Simulator{
		ts:        ts,
		tasks:     ts.Tasks,
		cfg:       cfg,
		taskLevel: cfg.Protocol == TaskLevel,
		exec:      make([]dist.Dist, n),
		jitter:    make([]dist.Dist, n),
		hc:        make([]bool, n),
		ids:       make([]int, n),
		idIndex:   make(map[int]int, n),
	}
	for i, t := range ts.Tasks {
		s.exec[i] = cfg.Exec[t.ID]
		s.jitter[i] = cfg.Jitter[t.ID]
		s.hc[i] = t.Crit == mc.HC
		s.ids[i] = t.ID
		s.idIndex[t.ID] = i
	}
	if cfg.Protocol == TaskLevel {
		s.interf = make([][]int32, n)
		for i := range ts.Tasks {
			if !s.hc[i] {
				continue
			}
			for l := range ts.Tasks {
				if !s.hc[l] && ts.Tasks[l].Period >= ts.Tasks[i].Period {
					s.interf[i] = append(s.interf[i], int32(l))
				}
			}
		}
	}
	return s, nil
}

// clone returns a simulator over the same resolved configuration — the
// task set, dense tables and release table shared read-only — with run
// state of its own, for a replication worker.
func (s *Simulator) clone() *Simulator {
	return &Simulator{
		ts: s.ts, tasks: s.tasks, cfg: s.cfg,
		exec: s.exec, jitter: s.jitter, hc: s.hc, ids: s.ids, idIndex: s.idIndex,
		interf: s.interf, taskLevel: s.taskLevel, table: s.table,
	}
}

// Run simulates the configured horizon and returns the metrics.
func (s *Simulator) Run() Metrics { return s.runSeed(s.cfg.Seed) }

// runSeed simulates the configured horizon from the given seed.
func (s *Simulator) runSeed(seed int64) Metrics {
	s.reset(seed)
	s.loop()
	s.finish()
	recordRun(s.m, s.preemptions)
	return s.m
}

// reset readies the simulator for a run from seed: the RNG is re-seeded
// (the same stream rand.New(rand.NewSource(seed)) yields), every job slot
// returns to the free list and all run state is cleared.
func (s *Simulator) reset(seed int64) {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	tasks := s.ts.Tasks
	n := len(tasks)
	if s.perTask == nil {
		s.perTask = make([]TaskMetrics, n)
	}
	for i := range tasks {
		s.perTask[i] = TaskMetrics{ID: tasks[i].ID, Crit: tasks[i].Crit}
	}
	s.events = s.events[:0]
	s.m = Metrics{Time: s.cfg.Horizon}
	s.now, s.mode, s.hcReady, s.lastHIEnter = 0, mc.LO, 0, 0
	s.preemptions, s.interrupted = 0, -1
	s.slots.reset(n)
	if s.ready == nil {
		s.ready = make([]int32, 0, 2*n)
		s.order = make([]int32, 0, 2*n)
	}
	s.ready = s.ready[:0]
	s.order = s.order[:0]
	if s.table != nil {
		s.relPos = 0
	} else {
		s.relHeap.reset(n)
		for i := range tasks {
			s.relHeap.push(i, 0)
		}
	}
	if s.taskLevel {
		if s.taskHI == nil {
			s.taskHI = make([]bool, n)
			s.hcReadyBy = make([]int, n)
			s.cover = make([]int, n)
			s.groupEnter = make([]float64, n)
			s.coverEnter = make([]float64, n)
			s.newCover = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			s.taskHI[i] = false
			s.hcReadyBy[i] = 0
			s.cover[i] = 0
		}
		s.activeGroups, s.histAt, s.sysEnter = 0, 0, 0
	}
}

// loop is the event loop. Releases due now are handed to the scheduler,
// then advance runs the processor up to the next release; the loop ends
// at the horizon or when nothing is left to release or run.
func (s *Simulator) loop() {
	for {
		s.releaseDue()
		if !s.advance(s.nextRelease()) {
			return
		}
	}
}

// advance runs the scheduler from now until the next release instant
// until (+Inf when none is left): pick the EDF-VD front job, run it to
// its next milestone (completion, C^LO exhaustion, until or the
// horizon), handle mode switches and completions, repeat. It reports
// whether the run goes on — now reached until before the horizon.
func (s *Simulator) advance(until float64) bool {
	horizon := s.cfg.Horizon
	js := &s.slots
	for s.now < until && s.now < horizon {
		run := int32(-1)
		if len(s.ready) > 0 {
			run = s.ready[0]
		}
		if s.interrupted >= 0 {
			// The interrupted job is still ready (releases cannot remove
			// it), so its slot is still its own: a different winner means
			// the release preempted it.
			if run != s.interrupted {
				s.preemptions++
			}
			s.interrupted = -1
		}
		if run < 0 {
			if math.IsInf(until, 1) {
				return false
			}
			s.now = until
			return true
		}

		// Milestone: completion, or — for an HC job in LO mode — the C^LO
		// budget exhaustion that triggers the mode switch.
		ti := js.task[run]
		milestone := js.remaining[run]
		budgetSwitch := false
		if s.hc[ti] {
			onBudget := s.mode == mc.LO
			if s.taskLevel {
				onBudget = !s.taskHI[ti]
			}
			if onBudget {
				if budgetLeft := s.tasks[ti].CLO - js.consumed[run]; budgetLeft < milestone {
					milestone = budgetLeft
					budgetSwitch = true
				}
			}
		}
		end := s.now + milestone
		if end > until {
			// Preemption point: run until the release.
			delta := until - s.now
			js.remaining[run] -= delta
			js.consumed[run] += delta
			s.m.BusyTime += delta
			s.now = until
			s.interrupted = run
			return true
		}
		if end > horizon {
			delta := horizon - s.now
			js.remaining[run] -= delta
			js.consumed[run] += delta
			s.m.BusyTime += delta
			s.now = horizon
			return false
		}

		js.remaining[run] -= milestone
		js.consumed[run] += milestone
		s.m.BusyTime += milestone
		s.now = end

		if budgetSwitch && js.remaining[run] > 0 {
			if s.taskLevel {
				s.enterGroupHI(ti)
			} else {
				s.enterHI()
			}
			continue
		}
		if js.remaining[run] <= 1e-12 {
			s.complete(run)
		}
	}
	return s.now < horizon
}

// finish settles the time-in-HI accounting at the horizon.
func (s *Simulator) finish() {
	horizon := s.cfg.Horizon
	if !s.taskLevel {
		if s.mode == mc.HI {
			s.m.TimeInHI += horizon - s.lastHIEnter
		}
		return
	}
	s.histAdvance(horizon)
	if s.activeGroups > 0 {
		s.m.TimeInHI += horizon - s.sysEnter
	}
	for i := range s.ts.Tasks {
		if s.taskHI[i] {
			s.perTask[i].TimeInHI += horizon - s.groupEnter[i]
		}
		if s.cover[i] > 0 {
			s.perTask[i].TimeInHI += horizon - s.coverEnter[i]
		}
	}
}

// releaseDue releases everything due now, in (time, task index) order —
// the same order as a task-array scan, since each task has at most one
// pending release and all due releases share the time now.
func (s *Simulator) releaseDue() {
	if tb := s.table; tb != nil {
		for s.relPos < len(tb.at) && tb.at[s.relPos] <= s.now {
			s.release(tb.task[s.relPos], tb.at[s.relPos])
			s.relPos++
		}
		return
	}
	for s.relHeap.len() > 0 {
		i := s.relHeap.minIdx()
		at := s.relHeap.time[i]
		if at > s.now {
			break
		}
		s.relHeap.pop()
		s.scheduleNext(i, at)
		s.release(int32(i), at)
	}
}

// nextRelease returns the earliest pending release instant, +Inf when
// none is left before the horizon.
func (s *Simulator) nextRelease() float64 {
	if tb := s.table; tb != nil {
		if s.relPos < len(tb.at) {
			return tb.at[s.relPos]
		}
		return math.Inf(1)
	}
	if s.relHeap.len() > 0 {
		return s.relHeap.time[s.relHeap.minIdx()]
	}
	return math.Inf(1)
}

// scheduleNext draws the gap after task i's release at at and queues
// the follow-up release when it lands inside the horizon.
func (s *Simulator) scheduleNext(i int, at float64) {
	t := &s.tasks[i]
	// Release-model draw first, per-task jitter draw second — a fixed
	// order so a seed means the same draws under every configuration.
	gap := t.Period
	if s.cfg.Release != nil {
		gap = s.cfg.Release.Gap(s.rng, t)
	}
	if jd := s.jitter[i]; jd != nil {
		if j := jd.Sample(s.rng); j > 0 {
			gap += j
		}
	}
	if next := at + gap; next < s.cfg.Horizon {
		s.relHeap.push(i, next)
	}
}

// drawExec samples task i's execution time, clamped to its budget.
func (s *Simulator) drawExec(i int32, t *mc.Task) float64 {
	d := s.exec[i]
	if d == nil {
		return t.CLO
	}
	x := d.Sample(s.rng)
	if x < 0 {
		x = 0
	}
	limit := t.CHI
	if t.Crit == mc.LC {
		limit = t.CLO
	}
	if x > limit {
		x = limit
	}
	return x
}

// release hands the scheduler one job of task i released at at. The
// execution draw happens before any drop decision: dropped LC jobs still
// consume their draw.
func (s *Simulator) release(i int32, at float64) {
	t := &s.tasks[i]
	exec := s.drawExec(i, t)
	tm := &s.perTask[i]
	tm.Released++
	s.record(at, EvRelease, t.ID)
	virtDL := at + t.Period
	degraded := false
	if s.hc[i] {
		s.m.HCReleased++
		if exec > t.CLO {
			s.m.Overruns++
			tm.Overruns++
		}
		inHI := s.mode == mc.HI
		if s.taskLevel {
			inHI = s.taskHI[i]
		}
		if !inHI {
			virtDL = at + s.cfg.X*t.Period
		}
	} else {
		s.m.LCReleased++
		covered := s.mode == mc.HI
		if s.taskLevel {
			covered = s.cover[i] > 0
		}
		if covered {
			switch s.cfg.Policy {
			case DropAll:
				s.m.LCDropped++
				tm.Dropped++
				s.record(at, EvDrop, t.ID)
				return
			case Degrade:
				degraded = true
				s.m.LCDegraded++
				exec *= s.cfg.DegradeFactor
			}
		}
	}
	js := &s.slots
	j := js.alloc()
	js.task[j] = i
	js.release[j] = at
	js.absDL[j] = at + t.Period
	js.virtDL[j] = virtDL
	js.remaining[j] = exec
	js.consumed[j] = 0
	js.degraded[j] = degraded
	s.addReady(j)
}

// complete retires the finished job in slot j and returns the system (or
// j's group) to LO once it has no ready HC job left.
func (s *Simulator) complete(j int32) {
	js := &s.slots
	ti := js.task[j]
	s.removeReady(j)
	id := s.ids[ti]
	tm := &s.perTask[ti]
	tm.Completed++
	resp := s.now - js.release[j]
	tm.sumResponse += resp
	if resp > tm.MaxResponse {
		tm.MaxResponse = resp
	}
	missed := s.now > js.absDL[j]+1e-9
	if missed {
		tm.Misses++
		s.record(s.now, EvMiss, id)
	} else {
		s.record(s.now, EvComplete, id)
	}
	if s.hc[ti] {
		s.m.HCCompleted++
		if missed {
			s.m.HCMisses++
		}
	} else {
		s.m.LCCompleted++
		if missed {
			s.m.LCMisses++
		}
	}
	js.put(j)
	if s.taskLevel {
		if s.hc[ti] && s.taskHI[ti] && s.hcReadyBy[ti] == 0 {
			s.exitGroupHI(ti)
		}
	} else if s.mode == mc.HI && s.hcReady == 0 {
		s.exitHI()
	}
}

// shed applies the HI-mode policy to a ready LC job in slot j at a mode
// switch and reports whether the job stays ready: DropAll frees it,
// Degrade scales its remaining budget once.
func (s *Simulator) shed(j int32) bool {
	js := &s.slots
	ti := js.task[j]
	switch s.cfg.Policy {
	case DropAll:
		s.m.LCDropped++
		s.perTask[ti].Dropped++
		s.record(s.now, EvDrop, s.ids[ti])
		js.put(j)
		return false
	case Degrade:
		if !js.degraded[j] {
			js.degraded[j] = true
			s.m.LCDegraded++
			js.remaining[j] *= s.cfg.DegradeFactor
		}
	}
	return true
}

// enterHI switches the system to HI mode: HC jobs regain their real
// deadlines and LC jobs are dropped or degraded. Iterating the
// insertion-order view (not the heap) keeps the drop-event order
// identical to the linear formulation; one O(n) re-heapify afterwards
// absorbs every deadline rewrite.
func (s *Simulator) enterHI() {
	s.mode = mc.HI
	s.m.ModeSwitches++
	s.lastHIEnter = s.now
	s.record(s.now, EvSwitchHI, 0)
	js := &s.slots
	kept := s.order[:0]
	for _, j := range s.order {
		if s.hc[js.task[j]] {
			js.virtDL[j] = js.absDL[j]
		} else if !s.shed(j) {
			continue
		}
		js.orderIdx[j] = int32(len(kept))
		kept = append(kept, j)
	}
	s.order = kept
	s.reheap()
}

// exitHI returns the system to LO mode. Future HC releases get virtual
// deadlines again; pending HC jobs keep their real deadlines (they were
// admitted under HI).
func (s *Simulator) exitHI() {
	s.mode = mc.LO
	s.m.TimeInHI += s.now - s.lastHIEnter
	s.record(s.now, EvSwitchLO, 0)
}

// histAdvance accrues the DegradedGroups histogram up to at.
func (s *Simulator) histAdvance(at float64) {
	if s.activeGroups > 0 {
		k := s.activeGroups
		if k > len(s.m.DegradedGroups) {
			k = len(s.m.DegradedGroups)
		}
		s.m.DegradedGroups[k-1] += at - s.histAt
	}
	s.histAt = at
}

// enterGroupHI opens HC task ti's degraded group (TaskLevel): ti's
// pending jobs recover their real deadlines, the LC tasks its switch
// newly covers are dropped or degraded, and everything else keeps
// running untouched. The switch event carries the task's ID (the
// system-level events carry 0).
func (s *Simulator) enterGroupHI(ti int32) {
	s.taskHI[ti] = true
	s.m.ModeSwitches++
	s.groupEnter[ti] = s.now
	s.record(s.now, EvSwitchHI, s.ids[ti])
	s.histAdvance(s.now)
	if s.activeGroups == 0 {
		s.sysEnter = s.now
	}
	s.activeGroups++
	for i := range s.newCover {
		s.newCover[i] = false
	}
	for _, l := range s.interf[ti] {
		s.cover[l]++
		if s.cover[l] == 1 {
			s.coverEnter[l] = s.now
			s.newCover[l] = true
		}
	}
	// Same shape as enterHI: walk the insertion-order view so drop
	// events stay in release order, then one O(n) re-heapify.
	js := &s.slots
	kept := s.order[:0]
	for _, j := range s.order {
		tj := js.task[j]
		if tj == ti {
			js.virtDL[j] = js.absDL[j]
		}
		if !s.hc[tj] && s.newCover[tj] && !s.shed(j) {
			continue
		}
		js.orderIdx[j] = int32(len(kept))
		kept = append(kept, j)
	}
	s.order = kept
	s.reheap()
}

// exitGroupHI closes ti's group at its idle instant: covered LC tasks
// shed one cover, and per-task/system degraded-time accounting settles.
func (s *Simulator) exitGroupHI(ti int32) {
	s.taskHI[ti] = false
	s.record(s.now, EvSwitchLO, s.ids[ti])
	s.perTask[ti].TimeInHI += s.now - s.groupEnter[ti]
	for _, l := range s.interf[ti] {
		s.cover[l]--
		if s.cover[l] == 0 {
			s.perTask[l].TimeInHI += s.now - s.coverEnter[l]
		}
	}
	s.histAdvance(s.now)
	s.activeGroups--
	if s.activeGroups == 0 {
		s.m.TimeInHI += s.now - s.sysEnter
	}
}
