package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"wideplace/internal/experiments"
)

func durations(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = time.Duration(n-i) * time.Millisecond // descending: the rule must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{1, 50, 1 * time.Millisecond},      // too few for any tail: the median
		{19, 50, 10 * time.Millisecond},    // p75 needs 40 samples
		{40, 75, 30 * time.Millisecond},    // 10 beyond p75
		{99, 75, 75 * time.Millisecond},    // 9.9 beyond p90 is too few
		{200, 95, 190 * time.Millisecond},  // exactly 10 beyond p95
		{1000, 99, 990 * time.Millisecond}, // 10 beyond p99, 1 beyond p99.9
		{10000, 99.9, 9990 * time.Millisecond},
	} {
		got, p := tailPercentile(durations(tc.n))
		if p != tc.p || got != tc.want {
			t.Errorf("n=%d: tail = (%v, p%g), want (%v, p%g)", tc.n, got, p, tc.want, tc.p)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "client.job", Parent: -1, Start: 0, End: 100},
		{Name: "dist.dispatch", Parent: 0, Start: 10, End: 50},
		{Name: "dist.dispatch", Parent: 0, Start: 30, End: 70},  // overlaps its sibling
		{Name: "server.result", Parent: 0, Start: 90, End: 120}, // reaches past the parent
		{Name: "lp.solve", Parent: 1, Start: 20, End: 40},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 60 - 10, 40 - 20, 40, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["dist"] != 60 || layers["client"] != 30 || layers["lp"] != 20 || layers["server"] != 30 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestJobStreamSameSeedSameMix(t *testing.T) {
	gen := func(seed int64, client int) []*question {
		g := newJobStream(seed, client)
		var qs []*question
		for i := 0; i < 100; i++ {
			q, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return qs
	}
	a, b := gen(7, 0), gen(7, 0)
	kinds := make(map[jobKind]int)
	for i := range a {
		if a[i].kind != b[i].kind || a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("job %d differs between two streams of one seed: %s %s vs %s %s", i, a[i].kind, a[i].key, b[i].kind, b[i].key)
		}
		kinds[a[i].kind]++
	}
	if a[0].kind != kindFresh {
		t.Errorf("first job is %s, want fresh", a[0].kind)
	}
	for k, n := range jobDeck {
		if kinds[jobKind(k)] != 5*n {
			t.Errorf("%d %s jobs in 100, want %d", kinds[jobKind(k)], jobKind(k), 5*n)
		}
	}
	other := gen(8, 0)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, other[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 gave the same job stream")
	}
	if c1 := gen(7, 1); bytes.Equal(c1[0].body, a[0].body) {
		t.Error("two clients of one seed share their first system")
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "bad name", "a/b", "_lead", "x:y", "ünits"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !validMetricName(d.name) || seen[d.name] {
			t.Errorf("metric %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
	}

	// BENCHMARK.json declares exactly the metrics the program reports.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the program reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestReferenceCheckCatchesPerturbedBound(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Sweep
	pts := make([]experiments.Point, len(want))
	for i, b := range want {
		pts[i] = experiments.Point{Bound: b, Feasible: b * 1.01, Infeasible: b < 0}
	}
	var ok outcome
	checkCells(&ok, pts, want, "exact")
	if ok.failed != 0 || ok.attempted != len(want) {
		t.Fatalf("exact reference: %d of %d failed: %v", ok.failed, ok.attempted, ok.failures)
	}
	pts[0].Bound *= 1 + 1e-4
	var bad outcome
	checkCells(&bad, pts, want, "perturbed")
	if bad.failed != 1 {
		t.Errorf("bound perturbed by 1e-4: %d failures, want 1", bad.failed)
	}
	if !matchesReference(want[0]*(1+1e-7), want[0]) || matchesReference(want[0]*(1+1e-4), want[0]) {
		t.Error("reference tolerance is not 1e-6 relative")
	}
	pts[0].Bound, pts[1].Feasible = want[0], want[1]*(1-1e-4)
	var below outcome
	checkCells(&below, pts, want, "below")
	if below.failed != 1 {
		t.Errorf("feasible cost below its bound: %d failures, want 1", below.failed)
	}
}

func TestTimesScaledByHostFactor(t *testing.T) {
	o := outcome{
		setup:      []time.Duration{9 * time.Second},
		setupCPU:   []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		p50:        10 * time.Millisecond,
		cpuPerOp:   8 * time.Millisecond,
		attempted:  4,
		hostFactor: 2,
		mem:        memUsage{allocBytes: 8e6, peakHeapBytes: 5e6},
	}
	m := o.result(false).Metrics
	for name, want := range map[string]float64{
		"setup_s": 1, "cpu_ms_per_op_ref": 4, // CPU medians over the factor
		"alloc_mb_per_op": 2, "peak_heap_mb": 5, // not times: not scaled
	} {
		if m[name].Value != want {
			t.Errorf("%s = %g, want %g", name, m[name].Value, want)
		}
	}
}

func TestYardstickIsFixedWork(t *testing.T) {
	src := yardstickInput()
	buf := make([]float64, yardstickLen)
	a := yardstick(src, buf)
	if b := yardstick(src, buf); a != b {
		t.Fatalf("yardstick gave %g then %g", a, b)
	}
	for i := 1; i < len(buf); i++ {
		if buf[i-1] > buf[i] {
			t.Fatal("yardstick left its buffer unsorted")
		}
	}
	if src[0] != 0 || src[1] != 7919%4099 {
		t.Error("yardstick sorted its input in place")
	}
}

func TestHostProbeStops(t *testing.T) {
	// finish returns once the probe has exited. Stopped before its first
	// sample, the probe reports the reference speed rather than dividing
	// by zero.
	p := startHostProbe()
	f, yard := p.finish()
	if want := float64(yard) / float64(yardstickRef); yard == 0 && f != 1 || yard != 0 && f != want {
		t.Errorf("probe: factor %g with yardstick %v", f, yard)
	}
}
