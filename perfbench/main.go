// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points of the scenario, experiments,
// core, lp, controller, server and dist packages, checks every output for
// correctness, and prints the result as one JSON line:
//
//	perfbench --workload sweep-transit --seed 3 --seconds 30 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run is traced (spans recorded around every call into a layer) and
// the JSON carries the per-layer metrics. See README.md for the workloads,
// the metrics and how to regenerate the reference bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) (*outcome, error){
	"sweep-transit":      runSweep,
	"controller-diurnal": runController,
	"jobs-mixed":         runJobs,
}

// run is one invocation's settings.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	// rec records spans in a traced run; nil in an untraced one.
	rec *recorder
	// outDir holds the run's TSVs and stores; it is removed when the run
	// ends.
	outDir string
}

// clients is the closed-loop concurrency and the sweep fan-out: at most
// nproc, and two at most, so one process never oversubscribes the host.
func clients() int {
	return min(2, runtime.NumCPU())
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sweep-transit, controller-diurnal or jobs-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured duration per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	regen := fs.String("regen-reference", "", "recompute the reference bounds and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *regen != "" {
		return 0, regenerateReference(*regen, stdout)
	}
	runner, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := checkSourceTree(); err != nil {
		return 2, err
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		outDir:   fmt.Sprintf(".bench_build/runs/%s-s%d-t%d-p%d", *workload, *seed, *trace, os.Getpid()),
	}
	if *trace == 1 {
		r.rec = newRecorder()
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(r.outDir)

	id := hostIdentity(r)
	idLine, _ := json.Marshal(id)
	fmt.Fprintf(stdout, "identity %s\n", idLine)

	// The host probe runs through set-up and the timed phase alike, so
	// one factor scales every time the run reports.
	probe := startHostProbe()
	out, err := runner(r)
	factor, yard := probe.finish()
	if err != nil {
		return 1, err
	}
	out.hostFactor, out.yardstick = factor, yard
	res := out.result(r.rec != nil)
	// Wall-clock times are printed and recorded, as measured and divided
	// by the host factor, but BENCHMARK.json holds none: on a shared host
	// they move with the other tenants' load by more than any bound.
	out.name("latency_p50_ms", ms(out.p50), "ms")
	out.name("latency_tail_ms", ms(out.tail), "ms")
	out.name("latency_p50_ms_ref", ms(out.p50)/out.hostFactor, "ms")
	out.name("latency_tail_ms_ref", ms(out.tail)/out.hostFactor, "ms")
	out.name("throughput_per_s", out.opsPerSec, "1/s")
	out.name("setup_wall_s", median(out.setup).Seconds(), "s")
	out.name("setup_cpu_s", median(out.setupCPU).Seconds(), "s")
	out.name("cpu_ms_per_op", ms(out.cpuPerOp), "ms")
	out.name("yardstick_ms", ms(out.yardstick), "ms")
	out.name("host_factor", out.hostFactor, "ratio")
	for _, n := range out.named {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n.name, n.value, n.unit)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	if err := writeRecord(r, id, out, res); err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return 0, nil
}

// checkSourceTree refuses to run outside a checkout of the repository:
// the benchmark measures the program next to it, never a stale build.
func checkSourceTree() error {
	for _, p := range []string{"go.mod", "internal/lp", "internal/server", "internal/dist"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// namedMetric is one workload-specific metric printed for humans, under
// the name the workload's users know it by (sweep_s, step_p95_ms, ...).
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload runner measured.
type outcome struct {
	setup    []time.Duration // wall time, one per set-up repetition
	setupCPU []time.Duration // process CPU time, one per set-up repetition
	lat      []time.Duration // one per timed operation
	// p50 and tail are the reported latencies; see latencies.
	p50, tail time.Duration
	// opsPerSec is operations per second of timed wall time.
	opsPerSec float64
	// cpuPerOp is the process CPU time one operation costs; see each
	// workload for how it is taken.
	cpuPerOp time.Duration
	// hostFactor is how much slower than the reference host this run's
	// host ran the yardstick, over set-up and timed phase; yardstick is its
	// median time.
	hostFactor float64
	yardstick  time.Duration
	attempted  int
	failed     int
	failures   []string // first few failure messages
	gaps       []float64
	mem        memUsage
	named      []namedMetric
	layer      map[string]float64 // per-layer metrics of a traced run
}

// fail counts one failed operation and keeps its message.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// latencies sets the reported latencies from the whole run: the median
// and the tail rule over every operation.
func (o *outcome) latencies() {
	o.p50 = median(o.lat)
	o.tail, _ = tailPercentile(o.lat)
}

// name appends a human-facing metric.
func (o *outcome) name(name string, value float64, unit string) {
	o.named = append(o.named, namedMetric{name, value, unit})
}

// result assembles the contract metrics of the run.
func (o *outcome) result(traced bool) result {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	if traced {
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{o.layer[d.name], d.unit}
		}
		return res
	}
	vals := map[string]float64{
		"setup_s":           median(o.setupCPU).Seconds() / o.hostFactor,
		"cpu_ms_per_op_ref": ms(o.cpuPerOp) / o.hostFactor,
		"cert_gap_mean":     mean(o.gaps),
		"alloc_mb_per_op":   float64(o.mem.allocBytes) / 1e6 / float64(max(o.attempted, 1)),
		"peak_heap_mb":      float64(o.mem.peakHeapBytes) / 1e6,
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res
}

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the untraced run's metrics, the same names on every
// workload; README.md maps each to its workload-specific meaning. Both
// times among them are process CPU times divided by the run's host factor:
// CPU time leaves out what the hypervisor steals and what waits for a
// processor, and the factor takes out how slow the processors ran.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op_ref", "ms"},
	{"cert_gap_mean", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics; every workload reports
// all of them, zero where the layer does no work.
var perLayerMetrics = []metricDef{
	{"scenario.compile_s", "s"},
	{"scenario.fingerprint_s", "s"},
	{"scenario.compiles", "count"},
	{"experiments.instance_s", "s"},
	{"experiments.cells", "count"},
	{"experiments.column_max_s", "s"},
	{"experiments.column_imbalance", "ratio"},
	{"core.model_build_s", "s"},
	{"core.rebind_s", "s"},
	{"core.round_s", "s"},
	{"core.round_steps", "count"},
	{"core.drift_set_reads_s", "s"},
	{"core.drift_changed_coefs", "count"},
	{"controller.churn", "count"},
	{"lp.solve_s", "s"},
	{"lp.iterations", "count"},
	{"lp.phase1_iterations", "count"},
	{"lp.dual_iterations", "count"},
	{"lp.degenerate_ratio", "ratio"},
	{"lp.refactorizations", "count"},
	{"lp.pricing_scans", "count"},
	{"lp.us_per_iteration", "us"},
	{"lp.warm_ratio", "ratio"},
	{"lp.basis_repairs", "count"},
	{"lp.presolve_rows_removed", "count"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_p95_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.refused", "count"},
	{"dist.column_store_ms", "ms"},
	{"dist.column_dispatch_ms", "ms"},
	{"dist.worker_solve_ms", "ms"},
	{"dist.dispatch_overhead_ms", "ms"},
	{"dist.store_hit_ratio", "ratio"},
	{"dist.shards_dispatched", "count"},
	{"dist.shard_retries", "count"},
	{"dist.shard_bytes", "bytes"},
	{"self.scenario_s", "s"},
	{"self.experiments_s", "s"},
	{"self.core_s", "s"},
	{"self.lp_s", "s"},
	{"self.controller_s", "s"},
	{"self.server_s", "s"},
	{"self.dist_s", "s"},
	{"self.client_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"scenario", "experiments", "core", "lp", "controller", "server", "dist", "client"}

// recordFile is what a run leaves behind under .bench_build/records: the
// host identity, every metric and, for a traced run, the spans.
type recordFile struct {
	Identity identity          `json:"identity"`
	Result   result            `json:"result"`
	Named    map[string]metric `json:"named"`
	Failures []string          `json:"failures,omitempty"`
	Spans    []span            `json:"spans,omitempty"`
}

func writeRecord(r *run, id identity, out *outcome, res result) error {
	rf := recordFile{Identity: id, Result: res, Named: make(map[string]metric), Failures: out.failures}
	for _, n := range out.named {
		rf.Named[n.name] = metric{n.value, n.unit}
	}
	if r.rec != nil {
		rf.Spans = r.rec.snapshot()
	}
	dir := ".bench_build/records"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s/%s-s%d-t%d-%s.json", dir, r.workload, r.seed, boolInt(r.rec != nil), time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(name, raw, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
