package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/lp"
)

// maxShardBytes bounds a shard request body; explicit traces dominate the
// size, and the cap matches the job API's request bound.
const maxShardBytes = 64 << 20

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Concurrency bounds simultaneously solving shards (default 1: one
	// warm chain saturates one core, and the coordinator spreads columns
	// across workers anyway). Excess requests wait their turn.
	Concurrency int
	// SolveTimeout is the default wall-clock cap per LP solve
	// (0 = unlimited); a shard may carry its own tighter cap.
	SolveTimeout time.Duration
	// CheckEvery is the simplex cancellation poll interval in iterations
	// (0 = solver default).
	CheckEvery int
}

// Worker solves column shards on demand. It is the dumb half of the
// subsystem: no queue, no store, no registry — it solves what it is sent
// and reports its own effort on /metrics.
type Worker struct {
	cfg     WorkerConfig
	sem     chan struct{}
	lpStats lp.StatsCollector
	served  atomic.Uint64
	failed  atomic.Uint64
	panics  atomic.Uint64

	// solveHook, when set, replaces solve (tests inject faults with it).
	solveHook func(ctx context.Context, shard *ShardJob) ([]experiments.Point, error)
}

// NewWorker returns a worker ready to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	return &Worker{cfg: cfg, sem: make(chan struct{}, cfg.Concurrency)}
}

// Handler returns the worker's HTTP API:
//
//	POST /solve    solve one column shard (ShardJob -> ColumnResult)
//	GET  /healthz  liveness probe
//	GET  /metrics  Prometheus text exposition (worker-side effort)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", w.handleSolve)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rw.Write([]byte("ok\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /metrics", w.handleMetrics)
	return mux
}

func (w *Worker) handleSolve(rw http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBytes))
	dec.DisallowUnknownFields()
	var shard ShardJob
	if err := dec.Decode(&shard); err != nil {
		http.Error(rw, "decode shard: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The semaphore bounds solver concurrency; a canceled dispatch stops
	// waiting instead of solving into the void.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		http.Error(rw, "canceled while queued", http.StatusServiceUnavailable)
		return
	}
	points, err := w.runShard(r.Context(), &shard)
	if err != nil {
		w.failed.Add(1)
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		http.Error(rw, err.Error(), status)
		return
	}
	w.served.Add(1)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(ColumnResult{Class: shard.Class, Points: points}) //nolint:errcheck // response committed
}

// runShard solves one shard and turns a panic in it — the solver's own, or
// a sweep cell's re-raised as *experiments.CellPanic — into an error. The
// coordinator then gets a clean 500 naming the panic, instead of a dropped
// connection it would take for a dead worker: a deterministic panic would
// otherwise drop every live worker in turn as the shard is retried. The
// stack is logged and placementd_worker_panics_total counts it.
func (w *Worker) runShard(ctx context.Context, shard *ShardJob) (points []experiments.Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.panics.Add(1)
			stack := debug.Stack()
			if cp, ok := r.(*experiments.CellPanic); ok {
				r, stack = cp.Value, cp.Stack
			}
			log.Printf("placementd worker: shard %s/%s panicked: %v\n%s", shard.Fingerprint, shard.Class, r, stack)
			points, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if w.solveHook != nil {
		return w.solveHook(ctx, shard)
	}
	return w.solve(ctx, shard)
}

// solve runs one shard as a warm-chained column with the solver's default
// configuration, the one every binary and the standalone server use, and
// records its effort.
func (w *Worker) solve(ctx context.Context, shard *ShardJob) ([]experiments.Point, error) {
	opts := experiments.Options{
		Parallel:     1,
		SolveTimeout: w.cfg.SolveTimeout,
		Ctx:          ctx,
	}
	opts.Bound.LP.CheckEvery = w.cfg.CheckEvery
	points, err := shard.Solve(opts)
	if err != nil {
		return nil, err
	}
	var agg lp.Stats
	for _, p := range points {
		agg.Add(p.Stats)
	}
	w.lpStats.Record(agg)
	return points, nil
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	columns, total := w.lpStats.Snapshot()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(rw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("placementd_worker_shards_served_total", "Column shards solved successfully.", w.served.Load())
	counter("placementd_worker_shards_failed_total", "Column shards that failed or were canceled.", w.failed.Load())
	counter("placementd_worker_panics_total", "Column shards failed by a recovered panic (stack logged).", w.panics.Load())
	counter("placementd_worker_lp_columns_total", "Solved columns whose effort is aggregated below.", uint64(columns))
	counter("placementd_worker_lp_iterations_total", "Simplex iterations across all shard solves.", uint64(total.Iterations))
	counter("placementd_worker_lp_refactorizations_total", "Mid-solve basis refactorizations across all shard solves.", uint64(total.Refactorizations))
	fmt.Fprintf(rw, "# HELP placementd_worker_lp_wall_seconds_total Wall-clock seconds inside LP solves.\n# TYPE placementd_worker_lp_wall_seconds_total counter\nplacementd_worker_lp_wall_seconds_total %g\n", total.Wall.Seconds())
}

// RunHeartbeat registers the worker with the coordinator and keeps the
// registration fresh: one POST to /workers/register per interval until
// ctx is canceled. Registration is idempotent and the coordinator expires
// silent workers after its TTL, so the loop needs no state; transient
// failures (coordinator restarting) are reported through logf and retried
// on the next beat.
func RunHeartbeat(ctx context.Context, client *http.Client, coordinatorURL, advertiseURL string, interval time.Duration, logf func(format string, args ...interface{})) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	body, _ := json.Marshal(registerRequest{URL: advertiseURL})
	beat := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordinatorURL+"/workers/register", bytes.NewReader(body))
		if err != nil {
			logf("heartbeat: %v", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				logf("heartbeat: %v", err)
			}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			logf("heartbeat: coordinator answered %s", resp.Status)
		}
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}
