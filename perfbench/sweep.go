package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

// sweep-transit is the command-line path: the registered transit-stub-100
// spec compiled and swept into a bounds TSV, one closed batch of cells.
const sweepScenario = "transit-stub-100"

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 9

// sweepBudget is the share of --seconds one sweep stands for: a run makes
// one sweep per sweepBudget, at least one. The count is fixed by
// --seconds rather than by how fast the host runs, so every run reports
// the same statistic (at 30 s, the faster of two sweeps).
const sweepBudget = 15 * time.Second

// sweepSpec is the registered spec, whatever the seed. A sweep's wall time
// is set by its slowest column, and that column's cost swings by a third
// between demand draws (15-25 s over eight draws on two cores); one sweep
// per run cannot average that out, so every run sweeps the same input and
// a run-to-run change is the program's or the host's, never the draw's.
func sweepSpec() (scenario.Spec, error) {
	return scenario.Get(sweepScenario)
}

// sweepOnce is one spec-to-TSV sweep as the command line runs it: compile
// the spec, sweep every (class, QoS) cell with warm chains, write the TSV.
// It returns the cells class-major and the TSV bytes.
func sweepOnce(tsvPath string) ([]experiments.Point, []byte, error) {
	spec, err := sweepSpec()
	if err != nil {
		return nil, nil, err
	}
	res, err := scenario.Compile(spec)
	if err != nil {
		return nil, nil, err
	}
	fig, err := experiments.Sweep(res.System, res.Classes, "", experiments.Options{Parallel: clients()}, nil)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		return nil, nil, err
	}
	if tsvPath != "" {
		if err := os.WriteFile(tsvPath, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
	}
	var pts []experiments.Point
	for _, s := range fig.Series {
		pts = append(pts, s.Points...)
	}
	return pts, buf.Bytes(), nil
}

// checkCells holds a sweep's cells to the reference bounds and the
// certificate rule, counting each cell as one operation.
func checkCells(out *outcome, pts []experiments.Point, want []float64, what string) {
	out.attempted += len(want)
	if len(pts) != len(want) {
		for range want {
			out.fail("%s: %d cells, reference has %d", what, len(pts), len(want))
		}
		return
	}
	for i, p := range pts {
		switch {
		case p.Infeasible != (want[i] < 0):
			out.fail("%s: cell %d (%s at %g) infeasible=%v, reference disagrees", what, i, p.Class, p.QoS, p.Infeasible)
		case p.Infeasible:
		case !matchesReference(p.Bound, want[i]):
			out.fail("%s: cell %d (%s at %g) bound %.10g, reference %.10g", what, i, p.Class, p.QoS, p.Bound, want[i])
		case !certifies(p.Feasible, p.Bound):
			out.fail("%s: cell %d (%s at %g) feasible %.10g below bound %.10g", what, i, p.Class, p.QoS, p.Feasible, p.Bound)
		default:
			out.gaps = append(out.gaps, certGap(p.Feasible, p.Bound))
		}
	}
}

func runSweep(r *run) (*outcome, error) {
	out := &outcome{}
	var want []float64
	tsvPath := filepath.Join(r.outDir, "sweep.tsv")
	// Set-up loads the reference and compiles the spec once, so the timed
	// sweeps start with the compile's code and memory warm.
	for i := 0; i < setupRepeats; i++ {
		t, c := time.Now(), cpuTime()
		ref, err := loadReference()
		if err != nil {
			return nil, err
		}
		spec, err := sweepSpec()
		if err != nil {
			return nil, err
		}
		if _, err := scenario.Compile(spec); err != nil {
			return nil, err
		}
		want = ref.Sweep
		out.setup = append(out.setup, time.Since(t))
		out.setupCPU = append(out.setupCPU, cpuTime()-c)
	}

	// Untraced sweeps: one per sweepBudget of the run, at least one. A
	// traced run makes exactly one, the baseline of the overhead.
	sweeps := max(1, int(r.seconds/sweepBudget))
	if r.rec != nil {
		sweeps = 1
	}
	ph := startPhase()
	var (
		last    time.Duration
		tsv     []byte
		lastPts []experiments.Point
	)
	var cpu []time.Duration // per sweep
	for len(out.lat) < sweeps {
		t, c := time.Now(), cpuTime()
		pts, b, err := sweepOnce(tsvPath)
		last = time.Since(t)
		cpu = append(cpu, cpuTime()-c)
		if err != nil {
			out.attempted += len(want)
			for range want {
				out.fail("sweep: %v", err)
			}
			break
		}
		out.lat = append(out.lat, last)
		checkCells(out, pts, want, "sweep")
		tsv, lastPts = b, pts
	}
	wall, _ := ph.end(out)
	out.opsPerSec = float64(out.attempted) / wall.Seconds()
	out.latencies()
	// Every sweep does the same work; a cell's CPU is the median sweep's
	// CPU, both workers' and the collector's, over its cells.
	if len(want) > 0 {
		out.cpuPerOp = median(cpu) / time.Duration(len(want))
	}

	sweepS := median(out.lat).Seconds()
	out.name("sweep_s", sweepS, "s")
	out.name("cells_per_s", out.opsPerSec, "1/s")
	out.name("cert_gap_mean", mean(out.gaps), "ratio")
	out.name("alloc_mb", float64(out.mem.allocBytes)/1e6, "MB")
	out.name("peak_heap_mb", float64(out.mem.peakHeapBytes)/1e6, "MB")

	if r.rec != nil && tsv != nil {
		layer, err := tracedSweep(r, out, want, lastPts, tsv)
		if err != nil {
			return nil, err
		}
		layer["trace.overhead_ms"] = layer["trace.wall_s"]*1000 - ms(last)
		out.layer = layer
	}
	out.name("error_ratio", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")
	return out, nil
}

// tracedSweep repeats the sweep through the layers' public functions with
// a span around every call: compile, per-QoS instance build, model build
// or rebind, LP solve without rounding, and Instance.Round. After the
// timed sweep, every rounded placement must pass VerifySolution, every
// cell's feasible cost must equal the untraced sweep's, and the TSV must
// be byte-identical to the untraced sweep's.
func tracedSweep(r *run, out *outcome, want []float64, untraced []experiments.Point, untracedTSV []byte) (map[string]float64, error) {
	rec := r.rec
	layer := make(map[string]float64)
	spec, err := sweepSpec()
	if err != nil {
		return nil, err
	}
	const id = "sweep"
	root := rec.begin("client.sweep", id, -1)
	var res *scenario.Result
	rec.time("scenario.compile", id, root, func() { res, err = scenario.Compile(spec) })
	if err != nil {
		return nil, err
	}
	sys := res.System
	classes, qos := res.Classes, sys.Spec.QoSPoints
	cache := &instances{sys: sys, m: make(map[float64]*instanceEntry)}
	cols := make([]tracedColumn, len(classes))
	work := make(chan int, len(classes))
	for c := range classes {
		work <- c
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				cols[c] = solveTracedColumn(rec, root, cache, classes[c], qos)
			}
		}()
	}
	wg.Wait()
	fig := &experiments.Figure{
		Title: fmt.Sprintf("sweep (%s): lower bounds per heuristic class", sys.Spec.Workload),
		Spec:  sys.Spec,
	}
	var pts []experiments.Point
	for c, col := range cols {
		if col.err != nil {
			return nil, fmt.Errorf("traced column %s: %w", classes[c].Name, col.err)
		}
		fig.Series = append(fig.Series, experiments.Series{Name: classes[c].Name, Points: col.points})
		pts = append(pts, col.points...)
	}
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, "sweep-traced.tsv"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	rec.end(root)

	// The fingerprint is computed inside Compile; time it once more on
	// its own, outside the sweep's spans, to split it out.
	fpStart := time.Now()
	if _, err := scenario.Fingerprint(sys); err != nil {
		return nil, err
	}
	layer["scenario.fingerprint_s"] = time.Since(fpStart).Seconds()

	checkCells(out, pts, want, "traced sweep")
	for c, col := range cols {
		for _, rd := range col.rounded {
			if verr := rd.inst.VerifySolution(classes[c], rd.store); verr != nil {
				out.fail("traced sweep: %s: rounded placement rejected: %v", classes[c].Name, verr)
			}
		}
	}
	if len(pts) == len(untraced) {
		for i, p := range pts {
			if p.Feasible != untraced[i].Feasible {
				out.fail("traced sweep: cell %d (%s at %g) feasible %.10g, untraced sweep gave %.10g",
					i, p.Class, p.QoS, p.Feasible, untraced[i].Feasible)
			}
		}
	}
	if !bytes.Equal(buf.Bytes(), untracedTSV) {
		out.fail("traced sweep: TSV differs from the untraced sweep's")
	}

	spans := rec.snapshot()
	traceMetrics(layer, spans)
	layer["scenario.compiles"] = 1
	layer["scenario.compile_s"] = spanSeconds(spans, "scenario.compile")
	layer["experiments.instance_s"] = spanSeconds(spans, "experiments.instance")
	layer["experiments.cells"] = float64(len(pts))
	layer["core.model_build_s"] = spanSeconds(spans, "core.model_build")
	layer["core.rebind_s"] = spanSeconds(spans, "core.rebind")
	layer["core.round_s"] = spanSeconds(spans, "core.round")
	var (
		agg            lp.Stats
		colMax, colSum time.Duration
		steps          int
	)
	for _, col := range cols {
		colMax = max(colMax, col.wall)
		colSum += col.wall
		steps += col.roundSteps
	}
	for _, p := range pts {
		agg.Add(p.Stats)
	}
	layer["core.round_steps"] = float64(steps)
	layer["experiments.column_max_s"] = colMax.Seconds()
	if colSum > 0 {
		layer["experiments.column_imbalance"] = float64(colMax) * float64(len(cols)) / float64(colSum)
	}
	lpMetrics(layer, agg)
	return layer, nil
}

// instances builds each per-QoS instance once, shared by every column.
type instances struct {
	sys *experiments.System
	mu  sync.Mutex
	m   map[float64]*instanceEntry
}

type instanceEntry struct {
	once sync.Once
	inst *core.Instance
	err  error
}

func (c *instances) get(rec *recorder, id string, parent int, q float64) (*core.Instance, error) {
	c.mu.Lock()
	e := c.m[q]
	if e == nil {
		e = &instanceEntry{}
		c.m[q] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		rec.time("experiments.instance", id, parent, func() { e.inst, e.err = c.sys.Instance(q) })
	})
	return e.inst, e.err
}

// tracedColumn is one class column of the traced sweep.
type tracedColumn struct {
	points     []experiments.Point
	wall       time.Duration
	roundSteps int
	rounded    []rounded // verified after the timed sweep
	err        error
}

// rounded is one rounded placement and the instance it was rounded on.
type rounded struct {
	inst  *core.Instance
	store [][][]bool
}

// solveTracedColumn walks one class column's QoS goals in ascending order
// as the sweep's warm chain does: the first attainable goal compiles the
// model, later goals rebind it, and every solve starts from the previous
// basis.
func solveTracedColumn(rec *recorder, root int, cache *instances, class *core.Class, qos []float64) tracedColumn {
	id := "sweep/" + class.Name
	start := time.Now()
	colSpan := rec.begin("experiments.column", id, root)
	defer rec.end(colSpan)
	col := tracedColumn{points: make([]experiments.Point, len(qos))}
	order := make([]int, len(qos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qos[order[a]] < qos[order[b]] })
	var (
		basis *lp.Basis
		comp  *core.CompiledQoS
	)
	for _, qi := range order {
		q := qos[qi]
		infeasible := experiments.Point{Class: class.Name, QoS: q, Infeasible: true}
		inst, err := cache.get(rec, id, colSpan, q)
		if err != nil {
			col.err = err
			return col
		}
		if comp == nil {
			rec.time("core.model_build", id, colSpan, func() { comp, err = inst.CompileQoS(class) })
		} else {
			rec.time("core.rebind", id, colSpan, func() { err = comp.Rebind(q) })
		}
		if errors.Is(err, core.ErrGoalUnattainable) {
			col.points[qi] = infeasible
			continue
		}
		if err != nil {
			col.err = err
			return col
		}
		opts := core.BoundOptions{SkipRounding: true}
		opts.LP.Start = basis
		lbStart := time.Now()
		lb := rec.begin("core.lower_bound", id, colSpan)
		b, err := comp.LowerBound(opts)
		rec.end(lb)
		if errors.Is(err, core.ErrGoalUnattainable) {
			col.points[qi] = infeasible
			continue
		}
		if err != nil {
			col.err = err
			return col
		}
		rec.addDur("lp.solve", id, lb, lbStart, b.Stats.Wall)
		var rr *core.RoundResult
		rec.time("core.round", id, colSpan, func() { rr, err = inst.Round(class, cloneStore(b.StoreFrac), core.RoundOptions{}) })
		if err != nil {
			col.err = err
			return col
		}
		col.rounded = append(col.rounded, rounded{inst, rr.Store})
		col.roundSteps += rr.UpSteps + rr.DownSteps
		col.points[qi] = experiments.Point{Class: class.Name, QoS: q, Bound: b.LPBound, Feasible: rr.Cost, Stats: b.Stats}
		basis = b.Basis
	}
	col.wall = time.Since(start)
	return col
}

func cloneStore(src [][][]float64) [][][]float64 {
	out := make([][][]float64, len(src))
	for n := range src {
		out[n] = make([][]float64, len(src[n]))
		for i := range src[n] {
			out[n][i] = append([]float64(nil), src[n][i]...)
		}
	}
	return out
}
