package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read logs while the server goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunStartsAndDrains boots the daemon on an ephemeral port, then
// cancels its context and expects a clean drain.
func TestRunStartsAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var logs syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "5s"}, &logs)
	}()
	// Let the listener come up, then trigger shutdown.
	deadline := time.After(5 * time.Second)
	for !strings.Contains(logs.String(), "listening on") {
		select {
		case err := <-errCh:
			t.Fatalf("run exited early: %v\nlogs:\n%s", err, logs.String())
		case <-deadline:
			t.Fatalf("server never listened\nlogs:\n%s", logs.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not drain\nlogs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("expected a clean drain, logs:\n%s", logs.String())
	}
}

// startDaemon boots run() with the given args and returns the address it
// listens on, plus the error channel and log buffer.
func startDaemon(t *testing.T, ctx context.Context, args []string) (addr string, errCh chan error, logs *syncBuffer) {
	t.Helper()
	logs = &syncBuffer{}
	errCh = make(chan error, 1)
	go func() { errCh <- run(ctx, args, logs) }()
	listening := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.After(5 * time.Second)
	for {
		if m := listening.FindStringSubmatch(logs.String()); m != nil {
			return m[1], errCh, logs
		}
		select {
		case err := <-errCh:
			t.Fatalf("run exited early: %v\nlogs:\n%s", err, logs.String())
		case <-deadline:
			t.Fatalf("server never listened\nlogs:\n%s", logs.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// waitDrained cancels a daemon and expects a clean exit.
func waitDrained(t *testing.T, cancel context.CancelFunc, errCh chan error, logs *syncBuffer) {
	t.Helper()
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not drain\nlogs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("expected a clean drain, logs:\n%s", logs.String())
	}
}

// TestRunCoordinatorWorkerJob boots a coordinator (with a persistent
// store) and a worker that heartbeats it, submits a job through the
// coordinator's API and waits for the distributed solve to finish.
func TestRunCoordinatorWorkerJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coordAddr, coordErr, coordLogs := startDaemon(t, ctx, []string{
		"-mode", "coordinator", "-addr", "127.0.0.1:0", "-workers", "1",
		"-store", t.TempDir(), "-drain-timeout", "5s", "-worker-wait", "30s",
	})
	coordURL := "http://" + coordAddr
	workerAddr, workerErr, workerLogs := startDaemon(t, ctx, []string{
		"-mode", "worker", "-addr", "127.0.0.1:0", "-workers", "1",
		"-coordinator", coordURL, "-heartbeat", "100ms", "-drain-timeout", "5s",
	})
	_ = workerAddr

	resp, err := http.Post(coordURL+"/jobs", "application/json", strings.NewReader(
		`{"spec":{"workload":"web","scale":"small","nodes":5,"objects":5,
		  "requests":400,"horizonMillis":7200000,"qos":[0.9]},"classes":["general"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" {
		t.Fatalf("submit returned no job id (state %q)", view.State)
	}
	deadline := time.Now().Add(time.Minute)
	for view.State != "done" {
		if view.State == "failed" || view.State == "canceled" {
			t.Fatalf("job reached %s: %s\ncoordinator logs:\n%s\nworker logs:\n%s",
				view.State, view.Error, coordLogs.String(), workerLogs.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s\ncoordinator logs:\n%s", view.State, coordLogs.String())
		}
		time.Sleep(25 * time.Millisecond)
		r, err := http.Get(coordURL + "/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	// The worker registry and dist counters are visible over HTTP.
	r, err := http.Get(coordURL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(body), "http://") {
		t.Fatalf("GET /workers listed no workers: %s", body)
	}
	r, err = http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "placementd_dist_shards_dispatched_total 1") {
		t.Fatalf("coordinator metrics missing dispatch count:\n%s", metrics)
	}

	waitDrained(t, cancel, workerErr, workerLogs)
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v\nlogs:\n%s", err, coordLogs.String())
	}
}

// TestRunWorkerStartsAndDrains covers worker mode's lifecycle without a
// coordinator: it serves /solve and /healthz and shuts down cleanly.
func TestRunWorkerStartsAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errCh, logs := startDaemon(t, ctx, []string{
		"-mode", "worker", "-addr", "127.0.0.1:0", "-drain-timeout", "5s",
	})
	r, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("worker healthz: %s", r.Status)
	}
	waitDrained(t, cancel, errCh, logs)
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"positional args", []string{"extra"}},
		{"malformed duration", []string{"-drain-timeout", "soon"}},
		{"unlistenable addr", []string{"-addr", "256.0.0.1:bad"}},
		{"unknown mode", []string{"-mode", "overlord"}},
		{"store outside coordinator mode", []string{"-store", "/tmp/x"}},
		{"coordinator flag outside worker mode", []string{"-coordinator", "http://x"}},
		{"advertise flag outside worker mode", []string{"-mode", "coordinator", "-advertise", "http://x"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var logs bytes.Buffer
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := run(ctx, c.args, &logs); err == nil {
				t.Fatalf("run(%v) succeeded; want error", c.args)
			}
		})
	}
}

// TestHTTPServerTimeouts: the front end bounds header reads and keep-alive
// idling, so slow or abandoned clients cannot pin connections forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("handler not installed")
	}
}
