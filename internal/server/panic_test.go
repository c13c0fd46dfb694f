package server

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wideplace/internal/dist"
	"wideplace/internal/experiments"
)

// panicOnceDispatcher panics on its first column, then solves every
// later column in-process, as a worker would.
type panicOnceDispatcher struct{ calls atomic.Int32 }

func (d *panicOnceDispatcher) SolveColumn(ctx context.Context, shard dist.ShardJob) ([]experiments.Point, bool, error) {
	if d.calls.Add(1) == 1 {
		panic("injected solver fault")
	}
	pts, err := shard.Solve(experiments.Options{Parallel: 1, Ctx: ctx})
	return pts, false, err
}

// TestJobPanicFailsJob: a panic inside a job's sweep (here on a sweep
// worker goroutine, inside the dispatcher) fails that job, is counted on
// /metrics, and leaves the daemon serving the next job.
func TestJobPanicFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 2, Dispatcher: &panicOnceDispatcher{}})

	v, _ := postJob(t, ts, tinyJob)
	failed := waitState(t, ts, v.ID, 30*time.Second, StateFailed)
	if !strings.HasPrefix(failed.Error, "panic: ") || !strings.Contains(failed.Error, "injected solver fault") {
		t.Fatalf("error = %q, want the recovered panic", failed.Error)
	}
	m := getMetrics(t, ts)
	if got := metricValue(t, m, "placementd_panics_total"); got != "1" {
		t.Fatalf("placementd_panics_total = %s, want 1", got)
	}
	if got := metricValue(t, m, `placementd_jobs_finished_total{state="failed"}`); got != "1" {
		t.Fatalf("failed jobs = %s, want 1", got)
	}

	next, _ := postJob(t, ts, tinyJob)
	waitState(t, ts, next.ID, 30*time.Second, StateDone)
	if got := metricValue(t, getMetrics(t, ts), "placementd_panics_total"); got != "1" {
		t.Fatalf("placementd_panics_total = %s after a clean job, want 1", got)
	}
}
