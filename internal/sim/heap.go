package sim

// Job storage and the priority queues of the event loop. Two orderings
// drive the simulator: which ready job runs next (EDF-VD: earliest
// virtual deadline) and which task releases next. Both were linear scans
// in the seed implementation; here they are binary min-heaps, making the
// per-event cost O(log n).
//
// Determinism contract: the heap comparators implement exactly the
// seed's tie-breaks — ready jobs order by (virtDL, task ID), pending
// releases by (time, task index) — and both orders are total on every
// reachable simulator state (two ready jobs of one task can never share
// a virtual deadline because successive releases are ≥ one period
// apart, and a task has at most one pending release). A total order
// makes the heap's pop sequence independent of its internal layout, so
// neither the heaps nor the slot numbering can reorder events or RNG
// draws.

import "math"

// jobSlots is the job storage: one structure-of-arrays entry per slot,
// indexed by int32. A slot is taken at release and returned to the free
// list at completion or drop; a run's steady-state ready population
// bounds the arrays, so after the first run of a simulator releases
// allocate nothing.
type jobSlots struct {
	task      []int32   // dense task index
	release   []float64 // release instant
	absDL     []float64 // real deadline
	virtDL    []float64 // EDF-VD priority deadline (shrunk for HC in LO)
	remaining []float64 // execution time still needed
	consumed  []float64 // processor time received
	degraded  []bool
	heapIdx   []int32 // position in the ready heap
	orderIdx  []int32 // position in the insertion-order view
	free      []int32
}

// reset returns every slot to the free list, lowest slot on top. The
// first reset sizes the arrays for two jobs per task, past the usual
// ready population, so growth is rare.
func (js *jobSlots) reset(tasks int) {
	if js.task == nil {
		n := 2 * tasks
		js.task = make([]int32, 0, n)
		js.release = make([]float64, 0, n)
		js.absDL = make([]float64, 0, n)
		js.virtDL = make([]float64, 0, n)
		js.remaining = make([]float64, 0, n)
		js.consumed = make([]float64, 0, n)
		js.degraded = make([]bool, 0, n)
		js.heapIdx = make([]int32, 0, n)
		js.orderIdx = make([]int32, 0, n)
		js.free = make([]int32, 0, n)
	}
	js.free = js.free[:0]
	for j := len(js.task) - 1; j >= 0; j-- {
		js.free = append(js.free, int32(j))
	}
}

// alloc returns a free slot, growing the arrays when none is left. The
// caller rewrites every field it reads.
func (js *jobSlots) alloc() int32 {
	if n := len(js.free); n > 0 {
		j := js.free[n-1]
		js.free = js.free[:n-1]
		return j
	}
	j := int32(len(js.task))
	js.task = append(js.task, 0)
	js.release = append(js.release, 0)
	js.absDL = append(js.absDL, 0)
	js.virtDL = append(js.virtDL, 0)
	js.remaining = append(js.remaining, 0)
	js.consumed = append(js.consumed, 0)
	js.degraded = append(js.degraded, false)
	js.heapIdx = append(js.heapIdx, 0)
	js.orderIdx = append(js.orderIdx, 0)
	return j
}

// put returns slot j to the free list.
func (js *jobSlots) put(j int32) { js.free = append(js.free, j) }

// addReady links slot j into both ready views.
func (s *Simulator) addReady(j int32) {
	js := &s.slots
	js.orderIdx[j] = int32(len(s.order))
	s.order = append(s.order, j)
	js.heapIdx[j] = int32(len(s.ready))
	s.ready = append(s.ready, j)
	s.up(len(s.ready) - 1)
	if ti := js.task[j]; s.hc[ti] {
		s.hcReady++
		if s.taskLevel {
			s.hcReadyBy[ti]++
		}
	}
}

// removeReady unlinks slot j from both ready views; the caller frees
// the slot once done with its fields.
func (s *Simulator) removeReady(j int32) {
	js := &s.slots
	last := len(s.order) - 1
	moved := s.order[last]
	s.order[js.orderIdx[j]] = moved
	js.orderIdx[moved] = js.orderIdx[j]
	s.order = s.order[:last]

	i := int(js.heapIdx[j])
	n := len(s.ready) - 1
	tail := s.ready[n]
	s.ready = s.ready[:n]
	if i != n {
		s.ready[i] = tail
		js.heapIdx[tail] = int32(i)
		if !s.down(i) {
			s.up(i)
		}
	}
	if ti := js.task[j]; s.hc[ti] {
		s.hcReady--
		if s.taskLevel {
			s.hcReadyBy[ti]--
		}
	}
}

// reheap rebuilds the ready heap from the insertion-order view in O(n) —
// used after a mode switch rewrites many virtual deadlines at once,
// where per-job fixes would cost O(n log n).
func (s *Simulator) reheap() {
	s.ready = append(s.ready[:0], s.order...)
	for i, j := range s.ready {
		s.slots.heapIdx[j] = int32(i)
	}
	for i := len(s.ready)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// less is the EDF-VD priority over slots: earliest virtual deadline
// first, ties broken by task ID — the seed's pick() ordering.
func (s *Simulator) less(x, y int32) bool {
	js := &s.slots
	if dx, dy := js.virtDL[x], js.virtDL[y]; dx != dy {
		return dx < dy
	}
	return s.ids[js.task[x]] < s.ids[js.task[y]]
}

func (s *Simulator) up(i int) {
	h, hi := s.ready, s.slots.heapIdx
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		hi[h[i]] = int32(i)
		hi[h[p]] = int32(p)
		i = p
	}
}

// down sifts heap position i toward the leaves and reports whether it
// moved.
func (s *Simulator) down(i int) bool {
	h, hi := s.ready, s.slots.heapIdx
	i0 := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(h[r], h[l]) {
			m = r
		}
		if !s.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		hi[h[i]] = int32(i)
		hi[h[m]] = int32(m)
		i = m
	}
	return i > i0
}

// releaseHeap orders pending releases by (time, dense task index). Each
// task appears at most once: it is popped when its release fires and
// re-pushed with the next release time (releases at or beyond the
// horizon are simply not pushed). The root therefore answers both hot
// questions — "everything due now" (drain while root time ≤ now) and
// "next release strictly in the future" (the root after the drain) —
// that the seed answered with two O(tasks) scans per event.
type releaseHeap struct {
	idx  []int     // heap of dense task indices
	time []float64 // next-release time per dense task index
}

// reset sizes the per-task time table and empties the heap.
func (h *releaseHeap) reset(n int) {
	h.idx = h.idx[:0]
	if cap(h.time) < n {
		h.time = make([]float64, n)
	}
	h.time = h.time[:n]
}

func (h *releaseHeap) len() int { return len(h.idx) }

// minIdx returns the dense task index with the earliest pending
// release; the caller reads the time from h.time. Only valid when
// len() > 0.
func (h *releaseHeap) minIdx() int { return h.idx[0] }

func (h *releaseHeap) lessIdx(a, b int) bool {
	ta, tb := h.time[a], h.time[b]
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (h *releaseHeap) push(task int, at float64) {
	h.time[task] = at
	h.idx = append(h.idx, task)
	i := len(h.idx) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.lessIdx(h.idx[i], h.idx[p]) {
			break
		}
		h.idx[i], h.idx[p] = h.idx[p], h.idx[i]
		i = p
	}
}

func (h *releaseHeap) pop() int {
	top := h.idx[0]
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.lessIdx(h.idx[r], h.idx[l]) {
			m = r
		}
		if !h.lessIdx(h.idx[m], h.idx[i]) {
			break
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
	return top
}

// maxTableReleases caps a shared release table (12 bytes per release);
// longer schedules fall back to the per-run release heap, whose memory
// does not grow with the horizon.
const maxTableReleases = 1 << 20

// releaseTable is a periodic release schedule: every (instant, dense task
// index) pair before the horizon, in the (time, index) order the event
// loop drains releases. When releases draw nothing from the RNG —
// periodic, no jitter — every run of a configuration releases exactly
// these jobs, so replications read one shared, read-only table instead
// of each walking its own release heap.
type releaseTable struct {
	at   []float64
	task []int32
}

// newReleaseTable returns s's release schedule when its configuration
// releases periodically without jitter and the schedule is at most
// maxTableReleases long, and nil otherwise. The walk is the event loop's
// own release heap with the periodic gap, so every instant is the same
// float64 the per-run heap would produce.
func (s *Simulator) newReleaseTable() *releaseTable {
	if !releaseIsPeriodic(s.cfg.Release) {
		return nil
	}
	tasks := s.ts.Tasks
	horizon := s.cfg.Horizon
	total := 0.0
	for i := range tasks {
		if s.jitter[i] != nil {
			return nil
		}
		total += math.Ceil(horizon / tasks[i].Period)
	}
	if total > maxTableReleases {
		return nil
	}
	tb := &releaseTable{
		at:   make([]float64, 0, int(total)),
		task: make([]int32, 0, int(total)),
	}
	var h releaseHeap
	h.reset(len(tasks))
	for i := range tasks {
		h.push(i, 0)
	}
	for h.len() > 0 {
		i := h.minIdx()
		at := h.time[i]
		h.pop()
		tb.at = append(tb.at, at)
		tb.task = append(tb.task, int32(i))
		if next := at + tasks[i].Period; next < horizon {
			h.push(i, next)
		}
	}
	return tb
}
