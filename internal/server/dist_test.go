package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wideplace/internal/dist"
)

// startDistWorker runs an in-process dist worker over HTTP.
func startDistWorker(t *testing.T) *httptest.Server {
	t.Helper()
	w := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{Concurrency: 2}).Handler())
	t.Cleanup(w.Close)
	return w
}

func getTSV(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s\n%s", resp.Status, raw)
	}
	return string(raw)
}

// TestDispatcherJobByteIdentical is the serving layer's acceptance test
// for the distributed path: a job solved through a coordinator and two
// remote workers serves a TSV byte-identical to standalone mode; a
// second server lifetime over the same store answers the job without any
// fresh solver effort (placementd_lp_iterations_total stays 0) while the
// TSV stays identical.
func TestDispatcherJobByteIdentical(t *testing.T) {
	const job = `{"spec":{"workload":"web","scale":"small","nodes":6,"objects":8,
		"requests":1500,"horizonMillis":14400000,"qos":[0.9,0.95]},
		"classes":["general","storage-constrained","caching"]}`

	_, standalone := newTestServer(t, Config{Workers: 1, Parallel: 1})
	v, _ := postJob(t, standalone, job)
	waitState(t, standalone, v.ID, time.Minute, StateDone)
	want := getTSV(t, standalone, v.ID)

	store, err := dist.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := dist.NewCoordinator(dist.CoordinatorConfig{Store: store, WorkerWait: 10 * time.Second})
	co.Register(startDistWorker(t).URL)
	co.Register(startDistWorker(t).URL)
	_, coord := newTestServer(t, Config{Workers: 1, Parallel: 3, Dispatcher: co})
	v, _ = postJob(t, coord, job)
	waitState(t, coord, v.ID, time.Minute, StateDone)
	if got := getTSV(t, coord, v.ID); got != want {
		t.Fatalf("distributed TSV differs from standalone:\n--- standalone ---\n%s--- distributed ---\n%s", want, got)
	}
	text := getMetrics(t, coord)
	if iters := metricValue(t, text, "placementd_lp_iterations_total"); iters == "0" {
		t.Fatalf("fresh distributed job recorded no solver effort")
	}
	if metricValue(t, text, "placementd_dist_store_misses_total") == "0" {
		t.Fatal("cold store recorded no misses")
	}

	// Lifetime two: a fresh server and coordinator over the same store
	// directory, with NO workers registered — the job must complete
	// purely from the persistent store.
	store2, err := dist.NewStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	co2 := dist.NewCoordinator(dist.CoordinatorConfig{Store: store2, WorkerWait: time.Second})
	_, restarted := newTestServer(t, Config{Workers: 1, Parallel: 3, Dispatcher: co2})
	v, _ = postJob(t, restarted, job)
	waitState(t, restarted, v.ID, time.Minute, StateDone)
	if got := getTSV(t, restarted, v.ID); got != want {
		t.Fatalf("store-served TSV differs from standalone")
	}
	text = getMetrics(t, restarted)
	if iters := metricValue(t, text, "placementd_lp_iterations_total"); iters != "0" {
		t.Fatalf("restarted coordinator recorded %s fresh iterations, want 0 (all columns from store)", iters)
	}
	if metricValue(t, text, "placementd_dist_store_hits_total") != "3" {
		t.Fatalf("restarted coordinator store hits = %s, want 3",
			metricValue(t, text, "placementd_dist_store_hits_total"))
	}
	if metricValue(t, text, "placementd_dist_shards_dispatched_total") != "0" {
		t.Fatal("restarted coordinator dispatched shards despite a warm store")
	}
}

// jobStream reads a job's NDJSON stream to completion.
func jobStream(t *testing.T, ts *httptest.Server, id string) (lines []map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestJobStream covers the job NDJSON stream in both modes: a live job
// streams a header, progress (and, with a dispatcher, per-column) events
// and a done trailer; an already-finished job streams header + trailer
// immediately.
func TestJobStream(t *testing.T) {
	// The worker holds every shard until the stream below has subscribed:
	// a job this small could otherwise finish before the stream opens and
	// stream only its header and trailer.
	release := make(chan struct{})
	wh := dist.NewWorker(dist.WorkerConfig{Concurrency: 2}).Handler()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/solve" {
			<-release
		}
		wh.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	co := dist.NewCoordinator(dist.CoordinatorConfig{WorkerWait: 10 * time.Second})
	co.Register(worker.URL)
	s, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, Dispatcher: co})

	const job = `{"spec":{"workload":"web","scale":"small","nodes":5,"objects":5,
		"requests":400,"horizonMillis":7200000,"qos":[0.9,0.95]},"classes":["general","caching"]}`
	v, _ := postJob(t, ts, job)
	j, _ := s.Job(v.ID)
	go func() {
		defer close(release)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			j.mu.Lock()
			subscribed := len(j.subs) > 0
			j.mu.Unlock()
			if subscribed {
				return
			}
		}
	}()
	lines := jobStream(t, ts, v.ID)
	if len(lines) < 2 {
		t.Fatalf("stream held %d lines, want header + trailer at least", len(lines))
	}
	first, last := lines[0], lines[len(lines)-1]
	if first["type"] != "job" || last["type"] != "job" {
		t.Fatalf("stream must start and end with job lines; got %v ... %v", first, last)
	}
	if st := last["job"].(map[string]interface{})["state"]; st != "done" {
		t.Fatalf("trailer state = %v, want done", st)
	}
	columns := 0
	for _, l := range lines[1 : len(lines)-1] {
		switch l["type"] {
		case "progress", "column":
			if l["type"] == "column" {
				columns++
			}
		default:
			t.Fatalf("unexpected stream line %v", l)
		}
	}
	if columns == 0 {
		t.Fatal("dispatcher-mode stream emitted no column events")
	}

	// A finished job answers immediately with header + trailer.
	lines = jobStream(t, ts, v.ID)
	if len(lines) != 2 || lines[0]["type"] != "job" || lines[1]["type"] != "job" {
		t.Fatalf("finished-job stream = %v, want exactly header + trailer", lines)
	}

	resp, err := http.Get(ts.URL + "/jobs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: %s, want 404", resp.Status)
	}
}

// TestDispatcherFailureFailsJob: when no worker ever appears the job
// fails with the coordinator's error instead of hanging.
func TestDispatcherFailureFailsJob(t *testing.T) {
	co := dist.NewCoordinator(dist.CoordinatorConfig{WorkerWait: 300 * time.Millisecond})
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, Dispatcher: co})
	v, _ := postJob(t, ts, tinyJob)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := getJob(t, ts, v.ID)
		if got.State == StateFailed {
			if !strings.Contains(got.Error, "no live worker") {
				t.Fatalf("error = %q, want a no-live-worker failure", got.Error)
			}
			return
		}
		if got.State.terminal() {
			t.Fatalf("job reached %s, want failed", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
