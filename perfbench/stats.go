package main

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"wideplace/internal/lp"
)

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]); zero for no samples.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	return s[min(max(rank, 1), len(s))-1]
}

func median[T cmp.Ordered](xs []T) T { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile of the ladder with at least ten samples beyond it.
// With too few samples for any of them it falls back to the median,
// reported as percentile 50.
func tailPercentile[T cmp.Ordered](xs []T) (T, float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the form BENCHMARK.json accepts for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(s string) bool { return metricName.MatchString(s) }

// refTolerance is the relative tolerance of the reference-bound check.
const refTolerance = 1e-6

// matchesReference reports whether got equals the stored reference bound
// want within refTolerance, relative to the larger magnitude.
func matchesReference(got, want float64) bool {
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= refTolerance*math.Max(scale, 1e-12)
}

// certifies reports whether a rounded feasible cost is a valid
// certificate for its bound: never below it beyond float rounding.
func certifies(feasible, bound float64) bool {
	return feasible >= bound-1e-9*math.Max(math.Abs(bound), 1)
}

// certGap is the rounding certificate's relative gap.
func certGap(feasible, bound float64) float64 {
	if bound <= 0 {
		return 0
	}
	return (feasible - bound) / bound
}

// memUsage is the timed phase's memory footprint.
type memUsage struct {
	allocBytes    uint64
	peakHeapBytes uint64
}

// memSampler tracks allocation and peak live heap over a timed phase from
// runtime/metrics. Every few milliseconds it reads the heap that the last
// GC cycle marked live (unlike the current heap size, it does not depend
// on when the collector happened to run) and keeps one sample per cycle
// it sees. The peak is the tail rule over those samples: the single
// highest cycle is whichever happened to mark in the middle of the
// largest operation, and moves from run to run by far more than the
// program's footprint does.
type memSampler struct {
	startAlloc uint64
	stop       chan struct{}
	done       chan struct{}
	live       []uint64 // one per GC cycle seen
}

var memSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/live:bytes", "/gc/cycles/total:gc-cycles"}

func readMem() (alloc, live, cycles uint64) {
	s := make([]metrics.Sample, len(memSamples))
	for i, n := range memSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	alloc, live, last := readMem()
	m.startAlloc, m.live = alloc, []uint64{live}
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if _, live, cycles := readMem(); cycles != last {
					m.live = append(m.live, live)
					last = cycles
				}
			}
		}
	}()
	return m
}

// finish stops the sampler and waits for it.
func (m *memSampler) finish() memUsage {
	close(m.stop)
	<-m.done
	alloc, _, _ := readMem()
	peak, _ := tailPercentile(m.live)
	return memUsage{allocBytes: alloc - m.startAlloc, peakHeapBytes: peak}
}

// phase measures one timed phase: allocation and peak heap, and process
// CPU time.
type phase struct {
	mem   *memSampler
	start time.Time
	cpu   time.Duration
}

func startPhase() *phase {
	return &phase{mem: startMemSampler(), start: time.Now(), cpu: cpuTime()}
}

// end stops the phase's sampler, records memory in out, and returns the
// phase's wall and CPU time.
func (p *phase) end(out *outcome) (wall, cpu time.Duration) {
	wall, cpu = time.Since(p.start), cpuTime()-p.cpu
	out.mem = p.mem.finish()
	return wall, cpu
}

// identity pins where and on what a record was measured, so records from
// different hosts or code are never compared.
type identity struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	CPUModel   string `json:"cpuModel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func hostIdentity(r *run) identity {
	return identity{
		Workload:   r.workload,
		Seed:       r.seed,
		Traced:     r.rec != nil,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var commitOnce = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+" + sourceDigest(".")
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	// Not built from a git checkout: identify the code by its content.
	return sourceDigest(".")
})

// commit names the code under test: the git revision when the build saw
// one, otherwise "src-sha256:" over every Go source and go.mod file. A
// revision with uncommitted changes carries that digest too.
func commit() string { return commitOnce() }

func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing file only changes the digest
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f) //nolint:errcheck
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// lpMetrics fills the lp layer's metrics from aggregated solver stats.
func lpMetrics(layer map[string]float64, agg lp.Stats) {
	layer["lp.solve_s"] = agg.Wall.Seconds()
	layer["lp.iterations"] = float64(agg.Iterations)
	layer["lp.phase1_iterations"] = float64(agg.Phase1Iterations)
	layer["lp.dual_iterations"] = float64(agg.DualIterations)
	layer["lp.refactorizations"] = float64(agg.Refactorizations)
	layer["lp.pricing_scans"] = float64(agg.PricingScans)
	layer["lp.basis_repairs"] = float64(agg.BasisRepairs)
	layer["lp.presolve_rows_removed"] = float64(agg.PresolveRowsRemoved)
	if agg.Iterations > 0 {
		layer["lp.degenerate_ratio"] = float64(agg.DegenerateSteps) / float64(agg.Iterations)
		layer["lp.us_per_iteration"] = float64(agg.Wall.Microseconds()) / float64(agg.Iterations)
	}
	if n := agg.WarmSolves + agg.ColdSolves; n > 0 {
		layer["lp.warm_ratio"] = float64(agg.WarmSolves) / float64(n)
	}
}
