package sim

import "chebymc/internal/obs"

// Simulator telemetry. The event loop never touches these — Run counts
// into its Metrics struct and plain locals and flushes everything here
// once per run, so the hot path costs nothing (see the obs package's
// overhead contract).
var (
	obsRuns = obs.Default.Counter("sim_runs_total",
		"completed simulator runs (one Monte Carlo replication each)")
	obsHCReleased = obs.Default.Counter("sim_hc_jobs_released_total",
		"HC jobs released across all runs")
	obsLCReleased = obs.Default.Counter("sim_lc_jobs_released_total",
		"LC jobs released across all runs")
	obsPreemptions = obs.Default.Counter("sim_preemptions_total",
		"times a running job lost the processor to a newly released job")
	obsModeSwitches = obs.Default.Counter("sim_mode_switches_total",
		"LO→HI mode switches across all runs")
	obsLCDropped = obs.Default.Counter("sim_lc_jobs_dropped_total",
		"LC jobs discarded by mode switches or HI-mode releases")
	obsHCOverruns = obs.Default.Counter("sim_hc_overruns_total",
		"HC jobs whose execution exceeded the optimistic budget C^LO")
	obsDeadlineMisses = obs.Default.Counter("sim_deadline_misses_total",
		"deadline misses of completed jobs, both criticalities")

	// System (multicore) replication telemetry: one count per completed
	// system replication, flushed after the whole fan-out.
	obsSystemRuns = obs.Default.Counter("sim_system_runs_total",
		"completed multicore system replications (all cores of one run)")
)

// recordRun flushes one run's counts — the single obs touch point of a
// simulation.
func recordRun(m Metrics, preemptions uint64) {
	obsRuns.Inc()
	obsHCReleased.Add(uint64(m.HCReleased))
	obsLCReleased.Add(uint64(m.LCReleased))
	obsPreemptions.Add(preemptions)
	obsModeSwitches.Add(uint64(m.ModeSwitches))
	obsLCDropped.Add(uint64(m.LCDropped))
	obsHCOverruns.Add(uint64(m.Overruns))
	obsDeadlineMisses.Add(uint64(m.HCMisses + m.LCMisses))
}
