package main

import (
	"fmt"
	"time"

	"wideplace/internal/controller"
	"wideplace/internal/core"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// controller-diurnal is the online path: diurnal-shift demand bucketed at
// a fine control period, stepped through controller.Step in a closed
// loop with lookahead (each interval planned from its own demand).
const (
	ctlScenario = "diurnal-shift"
	// ctlPeriod gives 288 steps per simulated day, so one run covers
	// thousands of steps.
	ctlPeriod = 5 * time.Minute
	ctlTqos   = 0.95
	// ctlSystemsPerRun systems are stepped in rotation, one day each,
	// so one seed's demand does not decide a run's latency alone.
	ctlSystemsPerRun = 4
)

// ctlSystem is one compiled diurnal system: its topology and the demand
// of every control interval.
type ctlSystem struct {
	topo    *topology.Topology
	tlat    float64
	objects int
	delta   time.Duration
	reads   [][][]int // reads[interval][node][object]
}

// ctlSystems compiles the seed's systems. The seed draws each system's
// workload trace; the topology is the registered one.
func ctlSystems(seed int64) ([]*ctlSystem, error) {
	var out []*ctlSystem
	for j := 0; j < ctlSystemsPerRun; j++ {
		spec, err := scenario.Get(ctlScenario)
		if err != nil {
			return nil, err
		}
		spec.DeltaMillis = ctlPeriod.Milliseconds()
		spec.Workload.Seed = uint64(2001 + variant(seed)*ctlSystemsPerRun + j)
		res, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		c := res.System.Counts
		sys := &ctlSystem{topo: res.System.Topo, tlat: res.System.Spec.Tlat, objects: c.Objects, delta: c.Delta}
		for i := 0; i < c.Intervals; i++ {
			rd, err := c.IntervalReads(i)
			if err != nil {
				return nil, err
			}
			sys.reads = append(sys.reads, rd)
		}
		out = append(out, sys)
	}
	return out, nil
}

func (s *ctlSystem) goal() core.Goal { return core.QoS(ctlTqos, s.tlat) }

func (s *ctlSystem) newController() (*controller.Controller, error) {
	return controller.New(controller.Config{
		Topo: s.topo, Objects: s.objects, Delta: s.delta,
		Cost: core.DefaultCost(), Goal: s.goal(),
	})
}

// stepKey names one interval of one system of the rotation.
type stepKey struct{ sys, interval int }

// stepOutcome is what the traced replica is compared against.
type stepOutcome struct {
	cost         float64
	churn        int
	changedCoefs int
}

// ctlSetupRepeats is the controller's count of set-ups per run, fewer
// than setupRepeats because each compiles four systems.
const ctlSetupRepeats = 5

func runController(r *run) (*outcome, error) {
	out := &outcome{}
	var (
		systems []*ctlSystem
		ctls    []*controller.Controller
		want    [][]float64
	)
	for i := 0; i < ctlSetupRepeats; i++ {
		t, c := time.Now(), cpuTime()
		ref, err := loadReference()
		if err != nil {
			return nil, err
		}
		if systems, err = ctlSystems(r.seed); err != nil {
			return nil, err
		}
		ctls = ctls[:0]
		for _, s := range systems {
			c, err := s.newController()
			if err != nil {
				return nil, err
			}
			ctls = append(ctls, c)
		}
		want = ref.Controller[variant(r.seed)]
		out.setup = append(out.setup, time.Since(t))
		out.setupCPU = append(out.setupCPU, cpuTime()-c)
	}
	for j, s := range systems {
		if j >= len(want) || len(want[j]) != len(s.reads) {
			return nil, fmt.Errorf("reference.json does not match system %d's %d intervals: regenerate it", j, len(s.reads))
		}
	}

	budget := r.seconds
	if r.rec != nil {
		budget /= 2 // the other half runs traced
	}
	seen := make(map[stepKey]stepOutcome)
	perStep := make(map[stepKey][]time.Duration)
	perStepCPU := make(map[stepKey][]time.Duration)
	ph := startPhase()
	sysIdx, interval := 0, 0
	var steps int
	for time.Since(ph.start) < budget {
		t, c := time.Now(), cpuTime()
		st, err := ctls[sysIdx].Step(systems[sysIdx].reads[interval])
		d, cd := time.Since(t), cpuTime()-c
		out.attempted++
		steps++
		switch {
		case err != nil:
			out.fail("system %d interval %d: %v", sysIdx, interval, err)
		case !matchesReference(st.Bound, want[sysIdx][interval]):
			out.fail("system %d interval %d: bound %.10g, reference %.10g", sysIdx, interval, st.Bound, want[sysIdx][interval])
		case !certifies(st.Cost, st.Bound):
			out.fail("system %d interval %d: cost %.10g below bound %.10g", sysIdx, interval, st.Cost, st.Bound)
		default:
			out.lat = append(out.lat, d)
			perStep[stepKey{sysIdx, interval}] = append(perStep[stepKey{sysIdx, interval}], d)
			perStepCPU[stepKey{sysIdx, interval}] = append(perStepCPU[stepKey{sysIdx, interval}], cd)
			out.gaps = append(out.gaps, certGap(st.Cost, st.Bound))
			seen[stepKey{sysIdx, interval}] = stepOutcome{st.Cost, st.Adds + st.Drops, st.ChangedCoefs}
		}
		if err != nil {
			break
		}
		if interval++; interval == len(systems[sysIdx].reads) {
			// A day ends: the next day of this system starts from a fresh
			// controller, so every day repeats the same steps and is
			// checked against the same reference chain. The old
			// controller is dropped first, so it is not live beside the
			// new one.
			ctls[sysIdx] = nil
			if ctls[sysIdx], err = systems[sysIdx].newController(); err != nil {
				return nil, err
			}
			sysIdx, interval = (sysIdx+1)%len(systems), 0
		}
	}
	wall, _ := ph.end(out)
	out.opsPerSec = float64(steps) / wall.Seconds()
	// Every day repeats the same steps, so each step's latency is taken
	// as its median over the run's days, and p50 and tail are those of
	// the per-step medians: a pause that hits one step on one day moves
	// neither. A run too short for a whole day has one sample per step.
	typical := make([]time.Duration, 0, len(perStep))
	for _, ds := range perStep {
		typical = append(typical, median(ds))
	}
	out.p50 = median(typical)
	out.tail, _ = tailPercentile(typical)
	// A step's CPU is taken the same way, as its median across days, and
	// averaged over the steps of the rotation.
	var cpuSum time.Duration
	for _, cs := range perStepCPU {
		cpuSum += median(cs)
	}
	if len(perStepCPU) > 0 {
		out.cpuPerOp = cpuSum / time.Duration(len(perStepCPU))
	}

	stepP95 := percentile(out.lat, 95)
	out.name("step_p50_ms", ms(median(out.lat)), "ms")
	out.name("step_p95_ms", ms(stepP95), "ms")
	out.name("steps_per_s", out.opsPerSec, "1/s")
	out.name("cert_gap_mean", mean(out.gaps), "ratio")
	out.name("alloc_mb", float64(out.mem.allocBytes)/1e6, "MB")
	out.name("peak_heap_mb", float64(out.mem.peakHeapBytes)/1e6, "MB")

	if r.rec != nil {
		layer, err := tracedController(r, out, systems, want, seen, budget)
		if err != nil {
			return nil, err
		}
		out.layer = layer
	}
	out.name("error_ratio", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")
	return out, nil
}

// replica is controller.Step spelled out over core's public API, so the
// traced run can time each part of a step: the demand rewrite
// (DriftQoS.SetReads), the carried placement (SetInitial), the warm LP
// solve without rounding, and Instance.Round on the interval's instance.
// DriftQoS rounds on an instance of its own that core does not export, so
// the replica rounds on one it builds; that build is work Controller.Step
// does not do, and it happens before the step's timed span.
type replica struct {
	sys       *ctlSystem
	drift     *core.DriftQoS
	basis     *lp.Basis
	placement [][]bool
}

func newReplica(s *ctlSystem) (*replica, error) {
	d, err := core.CompileDriftQoS(s.topo, s.objects, s.delta, core.DefaultCost(), s.goal(), nil)
	if err != nil {
		return nil, err
	}
	return &replica{sys: s, drift: d}, nil
}

// replicaStep is one traced step's result.
type replicaStep struct {
	bound, cost  float64
	churn        int
	changedCoefs int
	roundSteps   int
	stats        lp.Stats
	inst         *core.Instance
	store        [][][]bool
}

// instance builds the single-interval instance the next step rounds on,
// with the placement the step carries in.
func (p *replica) instance(reads [][]int) (*core.Instance, error) {
	return intervalInstance(p.sys, reads, p.placement)
}

// step runs one traced step, rounding on inst from p.instance.
func (p *replica) step(rec *recorder, id string, reads [][]int, inst *core.Instance) (*replicaStep, error) {
	root := rec.begin("controller.step", id, -1)
	defer rec.end(root)
	var err error
	out := replicaStep{inst: inst}
	rec.time("core.drift_set_reads", id, root, func() { out.changedCoefs, err = p.drift.SetReads(reads) })
	if err != nil {
		return nil, err
	}
	rec.time("core.drift_set_initial", id, root, func() { err = p.drift.SetInitial(p.placement) })
	if err != nil {
		return nil, err
	}
	opts := core.BoundOptions{SkipRounding: true}
	opts.LP.Start = p.basis
	lbStart := time.Now()
	lb := rec.begin("core.lower_bound", id, root)
	b, err := p.drift.LowerBound(opts)
	rec.end(lb)
	if err != nil {
		return nil, err
	}
	rec.addDur("lp.solve", id, lb, lbStart, b.Stats.Wall)
	var rr *core.RoundResult
	rec.time("core.round", id, root, func() { rr, err = out.inst.Round(core.General(), cloneStore(b.StoreFrac), core.RoundOptions{}) })
	if err != nil {
		return nil, err
	}
	next := make([][]bool, len(rr.Store))
	for n := range rr.Store {
		next[n] = rr.Store[n][0]
		if n == p.sys.topo.Origin {
			continue
		}
		for k, held := range next[n] {
			if held != (p.placement != nil && p.placement[n][k]) {
				out.churn++
			}
		}
	}
	out.bound, out.cost = b.LPBound, rr.Cost
	out.roundSteps = rr.UpSteps + rr.DownSteps
	out.stats = b.Stats
	out.store = rr.Store
	p.placement, p.basis = next, b.Basis
	return &out, nil
}

// intervalInstance is the single-interval instance a step rounds on: the
// interval's demand with the previous placement carried in.
func intervalInstance(s *ctlSystem, reads [][]int, initial [][]bool) (*core.Instance, error) {
	n := len(reads)
	counts := &workload.Counts{
		Reads: make([][][]int, n), Writes: make([][][]int, n),
		Nodes: n, Intervals: 1, Objects: s.objects, Delta: s.delta,
	}
	for i := range reads {
		counts.Reads[i] = [][]int{reads[i]}
		counts.Writes[i] = [][]int{make([]int, s.objects)}
	}
	in, err := core.NewInstance(s.topo, counts, core.DefaultCost(), s.goal())
	if err != nil {
		return nil, err
	}
	return in, in.SetInitial(initial)
}

// tracedController runs the replica for the traced half of the run. Each
// step must match the reference bound, and the untraced controller's cost,
// churn and rewritten coefficients wherever the untraced half reached the
// same interval; every rounded placement must pass VerifySolution.
func tracedController(r *run, out *outcome, systems []*ctlSystem, want [][]float64, seen map[stepKey]stepOutcome, budget time.Duration) (map[string]float64, error) {
	rec := r.rec
	layer := make(map[string]float64)
	reps := make([]*replica, len(systems))
	for j, s := range systems {
		var err error
		if reps[j], err = newReplica(s); err != nil {
			return nil, err
		}
	}
	var (
		agg              lp.Stats
		traced           []time.Duration
		churn, coefs     int
		roundSteps       int
		sysIdx, interval int
	)
	start := time.Now()
	for time.Since(start) < budget {
		id := fmt.Sprintf("s%d/i%d", sysIdx, interval)
		reads := systems[sysIdx].reads[interval]
		inst, err := reps[sysIdx].instance(reads)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		st, err := reps[sysIdx].step(rec, id, reads, inst)
		d := time.Since(t)
		out.attempted++
		key := stepKey{sysIdx, interval}
		switch {
		case err != nil:
			out.fail("traced %s: %v", id, err)
		case !matchesReference(st.bound, want[sysIdx][interval]):
			out.fail("traced %s: bound %.10g, reference %.10g", id, st.bound, want[sysIdx][interval])
		case !certifies(st.cost, st.bound):
			out.fail("traced %s: cost %.10g below bound %.10g", id, st.cost, st.bound)
		default:
			if u, ok := seen[key]; ok && (u.cost != st.cost || u.churn != st.churn || u.changedCoefs != st.changedCoefs) {
				out.fail("traced %s: (cost, churn, coefs) = (%.10g, %d, %d), controller.Step gave (%.10g, %d, %d)",
					id, st.cost, st.churn, st.changedCoefs, u.cost, u.churn, u.changedCoefs)
			} else if verr := st.inst.VerifySolution(core.General(), st.store); verr != nil {
				out.fail("traced %s: rounded placement rejected: %v", id, verr)
			}
			traced = append(traced, d)
			agg.Add(st.stats)
			churn += st.churn
			coefs += st.changedCoefs
			roundSteps += st.roundSteps
		}
		if err != nil {
			break
		}
		if interval++; interval == len(systems[sysIdx].reads) {
			if reps[sysIdx], err = newReplica(systems[sysIdx]); err != nil {
				return nil, err
			}
			sysIdx, interval = (sysIdx+1)%len(systems), 0
		}
	}
	spans := rec.snapshot()
	traceMetrics(layer, spans)
	layer["trace.overhead_ms"] = ms(median(traced)) - ms(median(out.lat))
	layer["core.drift_set_reads_s"] = spanSeconds(spans, "core.drift_set_reads")
	layer["core.drift_changed_coefs"] = float64(coefs)
	layer["core.round_s"] = spanSeconds(spans, "core.round")
	layer["core.round_steps"] = float64(roundSteps)
	layer["controller.churn"] = float64(churn)
	lpMetrics(layer, agg)
	return layer, nil
}
