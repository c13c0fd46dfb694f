package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a sweep, a
// column, a controller step, a job) share an ID; Parent indexes the span
// that caused this one (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"` // since the run began
	End    int64  `json:"endNs"`
}

// layer is the span name's prefix before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced run's spans in memory; they are written out
// with the run's record when it ends. A nil recorder records nothing, so
// code paths shared with the untraced run call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span over [start, end] and returns its index.
func (r *recorder) add(name, id string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// begin opens a span that may take children; end closes it.
func (r *recorder) begin(name, id string, parent int) int {
	now := time.Now()
	return r.add(name, id, parent, now, now)
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = end
}

// addDur records a span of a measured duration d that began at start.
// Used where a layer reports how long it ran (lp.Stats.Wall) but the
// benchmark cannot see the call's boundaries.
func (r *recorder) addDur(name, id string, parent int, start time.Time, d time.Duration) int {
	return r.add(name, id, parent, start, start.Add(d))
}

// time runs fn inside a span and returns the span's index.
func (r *recorder) time(name, id string, parent int, fn func()) int {
	start := time.Now()
	fn()
	return r.add(name, id, parent, start, time.Now())
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (columns
// solving in parallel) cover their union once, and a child reaching past
// its parent is clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].layer()] += d
	}
	return out
}

// spanSeconds totals the durations of the spans with the given name.
func spanSeconds(spans []span, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total.Seconds()
}

// traceMetrics fills the span-derived per-layer metrics shared by every
// workload: per-layer self time, span count and the summed duration of
// the traced operations (root spans).
func traceMetrics(layer map[string]float64, spans []span) {
	self := layerSelf(spans)
	for _, l := range selfLayers {
		layer["self."+l+"_s"] = self[l].Seconds()
	}
	var wall time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			wall += s.dur()
		}
	}
	layer["trace.wall_s"] = wall.Seconds()
	layer["trace.spans"] = float64(len(spans))
}
