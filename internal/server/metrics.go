package server

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"wideplace/internal/lp"
)

// metrics holds the service's monotonic counters and the job-duration
// histogram. Gauges (queue depth, jobs by state, cache size) are computed
// from live server state at scrape time, so they can never drift from the
// truth. The exposition format is the Prometheus text format, hand-rolled
// because the service takes no dependencies beyond the standard library.
type metrics struct {
	submitted    atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsCanceled atomic.Uint64
	panics       atomic.Uint64
	duration     histogram
}

// newMetrics returns a metrics set with duration buckets spanning
// sub-second cache-warm jobs to multi-hour paper-scale sweeps.
func newMetrics() *metrics {
	return &metrics{duration: histogram{
		bounds: []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200},
	}}
}

// histogram is a fixed-bucket Prometheus histogram.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // lazily sized to len(bounds)
	sum    float64
	count  uint64
}

// observe records one value.
func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]uint64, len(h.bounds))
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// snapshot returns cumulative bucket counts (Prometheus buckets are
// cumulative), the sum and the total count.
func (h *histogram) snapshot() (bounds []float64, cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.bounds {
		if h.counts != nil {
			acc += h.counts[i]
		}
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.count
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// gaugeSet is the point-in-time server state sampled at scrape time.
type gaugeSet struct {
	queueDepth  int
	jobsByState map[JobState]int
	cacheSize   int
}

// write renders the full exposition. lpSolves/lpTotal aggregate the
// solver effort of every completed job (see lp.StatsCollector).
func (m *metrics) write(w io.Writer, g gaugeSet, lpSolves int, lpTotal lp.Stats) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("placementd_jobs_submitted_total", "Placement jobs accepted (cache hits included).", m.submitted.Load())
	counter("placementd_cache_hits_total", "Submissions answered from the content-addressed result cache.", m.cacheHits.Load())
	counter("placementd_cache_misses_total", "Submissions that enqueued a new solve.", m.cacheMisses.Load())

	p("# HELP placementd_jobs_finished_total Jobs finished, by terminal state.\n# TYPE placementd_jobs_finished_total counter\n")
	p("placementd_jobs_finished_total{state=\"done\"} %d\n", m.jobsDone.Load())
	p("placementd_jobs_finished_total{state=\"failed\"} %d\n", m.jobsFailed.Load())
	p("placementd_jobs_finished_total{state=\"canceled\"} %d\n", m.jobsCanceled.Load())
	counter("placementd_panics_total", "Jobs failed by a recovered panic (stack logged).", m.panics.Load())

	p("# HELP placementd_queue_depth Jobs waiting in the bounded queue.\n# TYPE placementd_queue_depth gauge\nplacementd_queue_depth %d\n", g.queueDepth)
	p("# HELP placementd_cache_entries Entries in the result cache (finished and in-flight).\n# TYPE placementd_cache_entries gauge\nplacementd_cache_entries %d\n", g.cacheSize)
	p("# HELP placementd_jobs Retained jobs by state.\n# TYPE placementd_jobs gauge\n")
	for _, st := range States() {
		p("placementd_jobs{state=%q} %d\n", string(st), g.jobsByState[st])
	}

	counter("placementd_lp_solves_total", "Completed bound sweeps whose solver effort is aggregated below.", uint64(lpSolves))
	counter("placementd_lp_iterations_total", "Simplex iterations across all solves.", uint64(lpTotal.Iterations))
	counter("placementd_lp_phase1_iterations_total", "Phase-1 simplex iterations across all solves.", uint64(lpTotal.Phase1Iterations))
	counter("placementd_lp_initial_factorizations_total", "Setup basis factorizations (one per solve) across all solves.", uint64(lpTotal.InitialFactorizations))
	counter("placementd_lp_refactorizations_total", "Mid-solve basis refactorizations across all solves.", uint64(lpTotal.Refactorizations))
	counter("placementd_lp_degenerate_steps_total", "Degenerate simplex steps across all solves.", uint64(lpTotal.DegenerateSteps))
	counter("placementd_lp_bland_activations_total", "Transitions into Bland's anti-cycling rule.", uint64(lpTotal.BlandActivations))
	counter("placementd_lp_bound_flips_total", "Nonbasic bound-to-bound moves across all solves.", uint64(lpTotal.BoundFlips))
	counter("placementd_lp_pricing_scans_total", "Columns examined by the pricing rule across all solves.", uint64(lpTotal.PricingScans))
	counter("placementd_lp_presolve_rows_removed_total", "Constraint rows eliminated by presolve across all solves.", uint64(lpTotal.PresolveRowsRemoved))
	counter("placementd_lp_presolve_cols_removed_total", "Variables eliminated by presolve across all solves.", uint64(lpTotal.PresolveColsRemoved))
	counter("placementd_lp_rebind_solves_total", "Solves that reused a compiled model via QoS rebinding.", uint64(lpTotal.RebindSolves))
	p("# HELP placementd_lp_wall_seconds_total Wall-clock seconds spent inside LP solves.\n# TYPE placementd_lp_wall_seconds_total counter\nplacementd_lp_wall_seconds_total %s\n", promFloat(lpTotal.Wall.Seconds()))

	bounds, cum, sum, count := m.duration.snapshot()
	p("# HELP placementd_job_duration_seconds Wall-clock duration of completed jobs.\n# TYPE placementd_job_duration_seconds histogram\n")
	for i, b := range bounds {
		p("placementd_job_duration_seconds_bucket{le=%q} %d\n", promFloat(b), cum[i])
	}
	p("placementd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", count)
	p("placementd_job_duration_seconds_sum %s\n", promFloat(sum))
	p("placementd_job_duration_seconds_count %d\n", count)
	return err
}
