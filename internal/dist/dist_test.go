package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
)

func tinySpec() experiments.Spec {
	return experiments.Spec{
		Workload:  experiments.WEB,
		Nodes:     6,
		Objects:   10,
		Requests:  2500,
		Horizon:   8 * time.Hour,
		Delta:     time.Hour,
		Seed:      3,
		Tlat:      150,
		QoSPoints: []float64{0.8, 0.9},
		Zeta:      100,
	}
}

func tinyFingerprint(t *testing.T) string {
	t.Helper()
	sys, err := experiments.Build(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := scenario.Fingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Concurrency: 2}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerSolvesShard posts one shard at a worker and checks the
// answered column matches the purely local solve of the same column.
func TestWorkerSolvesShard(t *testing.T) {
	spec := tinySpec()
	fp := tinyFingerprint(t)
	worker := startWorker(t)

	shard := ShardJob{Spec: &spec, Class: "general", Fingerprint: fp}
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second})
	co.Register(worker.URL)
	got, fromStore, err := co.SolveColumn(context.Background(), shard)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("store-less coordinator claims a store hit")
	}
	want, err := shard.Solve(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range got {
		// Wall is the one nondeterministic stat; everything else must
		// survive the wire bit-exactly.
		got[i].Stats.Wall, want[i].Stats.Wall = 0, 0
		if got[i] != want[i] {
			t.Errorf("point %d differs over the wire:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestWorkerRejectsFingerprintDrift: a shard whose fingerprint does not
// match the worker's rebuild must fail, not contaminate results.
func TestWorkerRejectsFingerprintDrift(t *testing.T) {
	spec := tinySpec()
	worker := startWorker(t)
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second, ShardRetries: 1})
	co.Register(worker.URL)
	_, _, err := co.SolveColumn(context.Background(),
		ShardJob{Spec: &spec, Class: "general", Fingerprint: "sha256:not-the-system"})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("err = %v, want a fingerprint mismatch", err)
	}
}

// TestCoordinatorByteIdenticalFigure is the tentpole guarantee at package
// level: a figure assembled from columns solved by two remote workers is
// byte-identical (TSV) to the local sweep, and a second coordinator
// lifetime over the same store serves every column from disk with zero
// dispatches even with no worker alive.
func TestCoordinatorByteIdenticalFigure(t *testing.T) {
	spec := tinySpec()
	sys, err := experiments.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := scenario.Fingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	fig, err := experiments.Figure1(sys, experiments.Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteTSV(&local); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	render := func(co *Coordinator) string {
		opts := experiments.Options{
			Parallel: 3,
			ColumnSolver: func(ctx context.Context, class string, qos []float64) ([]experiments.Point, error) {
				pts, _, err := co.SolveColumn(ctx, ShardJob{Spec: &spec, Class: class, Fingerprint: fp})
				return pts, err
			},
		}
		fig, err := experiments.Figure1(sys, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := NewCoordinator(CoordinatorConfig{Store: store, WorkerWait: 5 * time.Second})
	first.Register(startWorker(t).URL)
	first.Register(startWorker(t).URL)
	if got := render(first); got != local.String() {
		t.Fatalf("distributed TSV differs from local:\n--- local ---\n%s--- distributed ---\n%s", local.String(), got)
	}
	if first.storeHits.Load() != 0 || first.dispatched.Load() == 0 {
		t.Fatalf("first lifetime: hits=%d dispatched=%d, want cold store and real dispatches",
			first.storeHits.Load(), first.dispatched.Load())
	}

	// Lifetime two: fresh coordinator, same directory, no workers at all.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := NewCoordinator(CoordinatorConfig{Store: store2, WorkerWait: time.Second})
	if got := render(second); got != local.String() {
		t.Fatalf("restarted coordinator served a different TSV")
	}
	if second.dispatched.Load() != 0 {
		t.Fatalf("restarted coordinator dispatched %d shards, want 0 (all from store)", second.dispatched.Load())
	}
	if second.storeHits.Load() == 0 {
		t.Fatal("restarted coordinator recorded no store hits")
	}
}

// TestCoordinatorRetriesOnAnotherWorker kills one of two workers and
// checks a shard that lands on the corpse is retried on the survivor.
func TestCoordinatorRetriesOnAnotherWorker(t *testing.T) {
	spec := tinySpec()
	fp := tinyFingerprint(t)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // a registered worker whose process has died
	live := startWorker(t)

	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second, ShardRetries: 3})
	co.Register(dead.URL)
	co.Register(live.URL)
	// Solve every Figure 1 column so the round-robin is guaranteed to hit
	// the dead worker at least once.
	for _, class := range []string{"general", "storage-constrained", "caching"} {
		if _, _, err := co.SolveColumn(context.Background(),
			ShardJob{Spec: &spec, Class: class, Fingerprint: fp}); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
	}
	if co.retries.Load() == 0 {
		t.Fatal("no shard was retried despite a dead worker in the rotation")
	}
	// The corpse was dropped from the registry after its first failure.
	for _, w := range co.Workers() {
		if w.URL == dead.URL {
			t.Fatal("dead worker still registered")
		}
	}
}

// TestCoordinatorNoWorkers fails a shard with a clear error when no
// worker ever appears.
func TestCoordinatorNoWorkers(t *testing.T) {
	spec := tinySpec()
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 300 * time.Millisecond})
	_, _, err := co.SolveColumn(context.Background(),
		ShardJob{Spec: &spec, Class: "general", Fingerprint: "sha256:x"})
	if err == nil || !strings.Contains(err.Error(), "no live worker") {
		t.Fatalf("err = %v, want a no-live-worker failure", err)
	}
}

// TestHeartbeatRegisters runs the worker heartbeat loop against the
// coordinator's registry handler.
func TestHeartbeatRegisters(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{})
	reg := httptest.NewServer(co.Handler())
	defer reg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunHeartbeat(ctx, nil, reg.URL, "http://worker-1:9", 50*time.Millisecond, t.Logf)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ws := co.Workers(); len(ws) == 1 && ws[0].URL == "http://worker-1:9" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered; registry: %+v", co.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerShardPanicIsCleanError injects a deterministic panic into both
// workers' shard solves, one as a sweep's re-raised *CellPanic and one as
// a bare value. The shard must fail with an error naming the panic after
// trying both workers, the workers must stay registered (they answered,
// so they are alive) and count the panic, and the next shard must solve.
func TestWorkerShardPanicIsCleanError(t *testing.T) {
	spec := tinySpec()
	fp := tinyFingerprint(t)
	var armed atomic.Bool
	armed.Store(true)
	start := func(value interface{}) (*Worker, *httptest.Server) {
		w := NewWorker(WorkerConfig{})
		w.solveHook = func(ctx context.Context, shard *ShardJob) ([]experiments.Point, error) {
			if armed.Load() {
				panic(value)
			}
			return w.solve(ctx, shard)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		return w, srv
	}
	cellWorker, cellSrv := start(&experiments.CellPanic{Value: "injected solver fault", Stack: []byte("cell stack")})
	bareWorker, bareSrv := start("injected solver fault")

	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second, ShardRetries: 1})
	co.Register(cellSrv.URL)
	co.Register(bareSrv.URL)
	shard := ShardJob{Spec: &spec, Class: "general", Fingerprint: fp}
	_, _, err := co.SolveColumn(context.Background(), shard)
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "panic: injected solver fault") {
		t.Fatalf("err = %v, want a 500 naming the panic", err)
	}
	if n := len(co.Workers()); n != 2 {
		t.Fatalf("%d workers registered after the panics, want 2", n)
	}
	for _, w := range []*Worker{cellWorker, bareWorker} {
		if p, f := w.panics.Load(), w.failed.Load(); p != 1 || f != 1 {
			t.Fatalf("worker counted panics=%d failed=%d, want 1 and 1", p, f)
		}
	}
	resp, err := http.Get(cellSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nplacementd_worker_panics_total 1\n") {
		t.Fatalf("/metrics lacks placementd_worker_panics_total 1:\n%s", body)
	}

	armed.Store(false)
	if _, _, err := co.SolveColumn(context.Background(), shard); err != nil {
		t.Fatalf("shard after the panics: %v", err)
	}
}
