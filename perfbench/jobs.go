package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/dist"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
	"wideplace/internal/server"
)

// jobs-mixed is the service path: an in-process placementd in coordinator
// mode with two loopback workers and a fresh column store, driven by
// closed-loop clients that each submit a job, wait on its stream for the
// trailer, fetch the TSV and only then submit the next.

// jobFamilies are the registered specs the job pool shrinks into small
// systems: four topology and workload families, drawn in shuffled rounds
// so every run holds them in equal shares.
var jobFamilies = []string{"transit-stub-100", "remote-office-clustered", "flash-crowd", "paper20-web"}

// jobClasses are the classes a job may ask for; a system's columns are
// these three.
var jobClasses = []string{"general", "storage-constrained", "replica-constrained"}

// jobKind is one of the three kinds of job in the mix.
type jobKind int

const (
	// kindFresh asks two classes of a brand-new system: every column is
	// dispatched.
	kindFresh jobKind = iota
	// kindSubset asks a new class subset of a system already seen: one
	// column comes from the store, the other is dispatched.
	kindSubset
	// kindRepeat repeats an earlier question exactly: the server's
	// result cache answers it.
	kindRepeat
)

func (k jobKind) String() string {
	return [...]string{"fresh", "subset", "repeat"}[k]
}

// jobDeck fixes the mix over every block of 20 jobs, so the share of each
// kind does not drift between runs. The split is an assumption: no
// placementd traffic data backs it. It was chosen so that repeats stay
// the fastest quarter and the median and the tail fall among the subset
// and fresh jobs.
var jobDeck = [...]int{kindFresh: 8, kindSubset: 7, kindRepeat: 5}

// question is one job: a system and the classes asked of it.
type question struct {
	kind    jobKind
	system  int // index into the stream's systems
	classes []string
	// key identifies the question: the same key is the same job body.
	key  string
	body []byte
}

// jobStream generates one client's job sequence from the seed. Each
// client owns its systems, so a subset or repeat job always refers to a
// job the same client has already seen answered.
type jobStream struct {
	rng     *rand.Rand
	client  int
	systems []scenario.Spec
	solved  [][]bool // solved[system][class]
	pending []int    // systems with an unsolved class
	asked   []*question
	deck    []jobKind
	fams    []int // families left in the current round
}

func newJobStream(seed int64, client int) *jobStream {
	return &jobStream{rng: rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)), client: client}
}

// newSystem draws a small system: one family shrunk to 8 sites and 8
// objects over two intervals, with 20000 requests. The sizes are an
// assumption, not taken from traffic: they were chosen so that a job
// takes tens of milliseconds and the LP does little of it.
func (g *jobStream) newSystem() (int, error) {
	if len(g.fams) == 0 {
		g.fams = g.rng.Perm(len(jobFamilies))
	}
	fam := g.fams[0]
	g.fams = g.fams[1:]
	spec, err := scenario.Get(jobFamilies[fam])
	if err != nil {
		return 0, err
	}
	spec = spec.WithNodes(8)
	spec.Name = fmt.Sprintf("c%d-s%d", g.client, len(g.systems))
	spec.Description = ""
	spec.Seed = 1 + g.rng.Uint64N(1<<40)
	spec.Topology.Seed, spec.Workload.Seed = 0, 0
	spec.Workload.Objects = 8
	spec.Workload.Requests = 20000
	spec.Workload.HorizonMillis = (8 * time.Hour).Milliseconds()
	spec.DeltaMillis = (4 * time.Hour).Milliseconds()
	spec.QoS = []float64{0.95, 0.99}
	spec.Classes = append([]string(nil), jobClasses...)
	spec.RequireAllClasses = false
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	g.systems = append(g.systems, spec)
	g.solved = append(g.solved, make([]bool, len(jobClasses)))
	g.pending = append(g.pending, len(g.systems)-1)
	return len(g.systems) - 1, nil
}

// next draws the next job: the first card of the shuffled block that can
// be played now (a subset needs a seen system with an unsolved class, a
// repeat a previous question; a fresh job is always playable).
func (g *jobStream) next() (*question, error) {
	if len(g.deck) == 0 {
		for k, n := range jobDeck {
			for i := 0; i < n; i++ {
				g.deck = append(g.deck, jobKind(k))
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	pick := -1
	for i, k := range g.deck {
		if k == kindFresh || (k == kindSubset && len(g.pending) > 0) || (k == kindRepeat && len(g.asked) > 0) {
			pick = i
			break
		}
	}
	if pick < 0 {
		return nil, errors.New("job deck has no playable card")
	}
	kind := g.deck[pick]
	g.deck = append(g.deck[:pick], g.deck[pick+1:]...)

	switch kind {
	case kindRepeat:
		prev := g.asked[g.rng.IntN(len(g.asked))]
		q := *prev
		q.kind = kindRepeat
		return &q, nil
	case kindSubset:
		pi := g.rng.IntN(len(g.pending))
		sys := g.pending[pi]
		g.pending = append(g.pending[:pi], g.pending[pi+1:]...)
		var solved, unsolved []int
		for c, ok := range g.solved[sys] {
			if ok {
				solved = append(solved, c)
			} else {
				unsolved = append(unsolved, c)
			}
		}
		pickC := append([]int{solved[g.rng.IntN(len(solved))]}, unsolved...)
		return g.ask(kindSubset, sys, pickC)
	default:
		sys, err := g.newSystem()
		if err != nil {
			return nil, err
		}
		skip := g.rng.IntN(len(jobClasses))
		var pickC []int
		for c := range jobClasses {
			if c != skip {
				pickC = append(pickC, c)
			}
		}
		return g.ask(kindFresh, sys, pickC)
	}
}

// ask records a new question of classes cs (indices into jobClasses,
// asked in jobClasses order) on system sys.
func (g *jobStream) ask(kind jobKind, sys int, cs []int) (*question, error) {
	inSet := make(map[int]bool)
	for _, c := range cs {
		inSet[c] = true
		g.solved[sys][c] = true
	}
	var classes []string
	for c, name := range jobClasses {
		if inSet[c] {
			classes = append(classes, name)
		}
	}
	spec := g.systems[sys]
	body, err := json.Marshal(server.JobRequest{Scenario: &spec, Classes: classes})
	if err != nil {
		return nil, err
	}
	q := &question{kind: kind, system: sys, classes: classes, body: body,
		key: spec.Name + "/" + strings.Join(classes, ",")}
	g.asked = append(g.asked, q)
	return q, nil
}

// stack is one booted placementd: server with coordinator, two workers,
// the store, and the HTTP servers in front of them.
type stack struct {
	srv      *server.Server
	coord    *dist.Coordinator
	disp     *timedDispatcher
	workers  []*timedWorker
	https    []*http.Server
	serveWG  sync.WaitGroup
	hbCancel context.CancelFunc
	hbWG     sync.WaitGroup
	baseURL  string
	storeDir string
}

func bootStack(storeDir string, tracing *atomic.Bool) (*stack, error) {
	st := &stack{storeDir: storeDir}
	store, err := dist.NewStore(storeDir)
	if err != nil {
		return nil, err
	}
	st.coord = dist.NewCoordinator(dist.CoordinatorConfig{Store: store, WorkerTTL: time.Minute})
	st.disp = &timedDispatcher{inner: st.coord, tracing: tracing}
	st.srv = server.New(server.Config{Parallel: clients(), Dispatcher: st.disp})
	mux := http.NewServeMux()
	mux.Handle("/workers", st.coord.Handler())
	mux.Handle("/workers/", st.coord.Handler())
	mux.Handle("/", st.srv.Handler())
	if st.baseURL, err = st.serve(mux); err != nil {
		st.close() //nolint:errcheck // the boot error is the one to report
		return nil, err
	}
	hbCtx, cancel := context.WithCancel(context.Background())
	st.hbCancel = cancel
	for i := 0; i < 2; i++ {
		tw := &timedWorker{inner: dist.NewWorker(dist.WorkerConfig{}).Handler(), tracing: tracing}
		url, err := st.serve(tw)
		if err != nil {
			st.close() //nolint:errcheck // the boot error is the one to report
			return nil, err
		}
		st.workers = append(st.workers, tw)
		st.hbWG.Add(1)
		go func() {
			defer st.hbWG.Done()
			dist.RunHeartbeat(hbCtx, &http.Client{}, st.baseURL, url, time.Second, func(string, ...interface{}) {})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(st.coord.Workers()) < len(st.workers) {
		if time.Now().After(deadline) {
			st.close() //nolint:errcheck // the boot error is the one to report
			return nil, errors.New("workers did not register within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return st, nil
}

// serve starts an HTTP server for h on a loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.https = append(st.https, hs)
	st.serveWG.Add(1)
	go func() {
		defer st.serveWG.Done()
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close drains the server, stops heartbeats and HTTP servers, waits for
// every goroutine the stack started and removes the store.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.Drain(ctx))
	}
	if st.hbCancel != nil {
		st.hbCancel()
	}
	st.hbWG.Wait()
	for _, hs := range st.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	st.serveWG.Wait()
	errs = append(errs, os.RemoveAll(st.storeDir))
	return errors.Join(errs...)
}

// warmupClient names the warm-up job's system apart from the clients'.
const warmupClient = 9

// warmUp sends one fixed job through the booted stack and waits for its
// TSV, so the timed phase starts with connections open and code warm. The
// job is the same on every boot and every seed; its system is never asked
// again.
func (st *stack) warmUp() error {
	c := &jobClient{id: warmupClient, base: st.baseURL, http: &http.Client{Transport: &http.Transport{}}, gen: newJobStream(1, warmupClient)}
	defer c.http.CloseIdleConnections()
	q, err := c.gen.next()
	if err != nil {
		return err
	}
	if rec := c.do(q, false); rec.err != nil {
		return fmt.Errorf("warm-up job: %w", rec.err)
	}
	return nil
}

// distCounters parses the coordinator's counters from its exposition.
// The warm-up job's shards are counted too; callers subtract a snapshot.
func (st *stack) distCounters() map[string]float64 {
	var buf bytes.Buffer
	st.coord.WriteMetrics(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}

// timedDispatcher wraps the coordinator's server.Dispatcher side and,
// while tracing, records every column it answers.
type timedDispatcher struct {
	inner   *dist.Coordinator
	tracing *atomic.Bool
	mu      sync.Mutex
	cols    []columnRecord
}

type columnRecord struct {
	system, class string
	start, end    time.Time
	fromStore     bool
	stats         lp.Stats
}

func (d *timedDispatcher) SolveColumn(ctx context.Context, shard dist.ShardJob) ([]experiments.Point, bool, error) {
	if !d.tracing.Load() {
		return d.inner.SolveColumn(ctx, shard)
	}
	start := time.Now()
	pts, fromStore, err := d.inner.SolveColumn(ctx, shard)
	rec := columnRecord{class: shard.Class, start: start, end: time.Now(), fromStore: fromStore}
	if shard.Scenario != nil {
		rec.system = shard.Scenario.Name
	}
	if !fromStore {
		for _, p := range pts {
			rec.stats.Add(p.Stats)
		}
	}
	d.mu.Lock()
	d.cols = append(d.cols, rec)
	d.mu.Unlock()
	return pts, fromStore, err
}

// WriteMetrics keeps the coordinator's counters in /metrics.
func (d *timedDispatcher) WriteMetrics(w io.Writer) { d.inner.WriteMetrics(w) }

// timedWorker wraps a worker's handler and, while tracing, records every
// shard it solves with the shard's size on the wire.
type timedWorker struct {
	inner   http.Handler
	tracing *atomic.Bool
	mu      sync.Mutex
	solves  []workerRecord
}

type workerRecord struct {
	system, class string
	start, end    time.Time
	bytes         int
}

func (w *timedWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/solve" || !w.tracing.Load() {
		w.inner.ServeHTTP(rw, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(rw, "read shard: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var probe struct {
		Scenario *struct {
			Name string `json:"name"`
		} `json:"scenario"`
		Class string `json:"class"`
	}
	json.Unmarshal(body, &probe) //nolint:errcheck // the worker itself rejects a malformed shard
	start := time.Now()
	w.inner.ServeHTTP(rw, r)
	rec := workerRecord{class: probe.Class, start: start, end: time.Now(), bytes: len(body)}
	if probe.Scenario != nil {
		rec.system = probe.Scenario.Name
	}
	w.mu.Lock()
	w.solves = append(w.solves, rec)
	w.mu.Unlock()
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	client int
	q      *question
	traced bool
	id     string
	cached bool
	// t0 POST sent, tSubmit POST answered, tStream trailer read, t1 TSV
	// received.
	t0, tSubmit, tStream, t1 time.Time
	view                     server.JobView
	tsv                      []byte
	refused                  bool
	err                      error
}

// jobClient is one closed-loop client with its own connection.
type jobClient struct {
	id      int
	base    string
	http    *http.Client
	gen     *jobStream
	records []*jobRecord
}

func (c *jobClient) loop(deadline time.Time, tracing *atomic.Bool) {
	for time.Now().Before(deadline) {
		q, err := c.gen.next()
		if err != nil {
			c.records = append(c.records, &jobRecord{client: c.id, err: err})
			return
		}
		c.records = append(c.records, c.do(q, tracing.Load()))
	}
}

// do runs one job: POST it, wait on its stream for the trailer, GET the
// TSV.
func (c *jobClient) do(q *question, traced bool) *jobRecord {
	rec := &jobRecord{client: c.id, q: q, traced: traced, t0: time.Now()}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(q.body))
	if err != nil {
		rec.err = err
		return rec
	}
	var view server.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	rec.tSubmit = time.Now()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusBadRequest:
		rec.refused = true
		rec.err = fmt.Errorf("submit refused: %s", resp.Status)
		return rec
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("submit: %s", resp.Status)
		return rec
	case err != nil:
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.id, rec.cached = view.ID, view.Cached

	resp, err = c.http.Get(c.base + "/jobs/" + view.ID + "/stream")
	if err != nil {
		rec.err = err
		return rec
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	err = sc.Err()
	resp.Body.Close()
	rec.tStream = time.Now()
	var trailer struct {
		Type string         `json:"type"`
		Job  server.JobView `json:"job"`
	}
	if err == nil {
		err = json.Unmarshal(last, &trailer)
	}
	if err != nil || trailer.Type != "job" {
		rec.err = fmt.Errorf("stream %s: no trailer (%v)", view.ID, err)
		return rec
	}
	rec.view = trailer.Job
	if rec.view.State != server.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", view.ID, rec.view.State, rec.view.Error)
		return rec
	}

	resp, err = c.http.Get(c.base + "/jobs/" + view.ID + "/result?format=tsv")
	if err != nil {
		rec.err = err
		return rec
	}
	rec.tsv, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.t1 = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s", resp.Status)
	}
	rec.err = err
	return rec
}

func runJobs(r *run) (*outcome, error) {
	out := &outcome{}
	var tracing atomic.Bool
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		t, c := time.Now(), cpuTime()
		s, err := bootStack(filepath.Join(r.outDir, fmt.Sprintf("store%d", i)), &tracing)
		if err != nil {
			return nil, err
		}
		if err := s.warmUp(); err != nil {
			s.close() //nolint:errcheck // the warm-up failure is the error to report
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t))
		out.setupCPU = append(out.setupCPU, cpuTime()-c)
		if i < setupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}

	n := clients()
	cls := make([]*jobClient, n)
	for i := range cls {
		cls[i] = &jobClient{
			id:   i,
			base: st.baseURL,
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			gen:  newJobStream(r.seed, i),
		}
	}
	warm := st.distCounters()
	ph := startPhase()
	deadline := ph.start.Add(r.seconds)
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline, &tracing)
		}()
	}
	if r.rec != nil {
		// The first half runs untraced, the baseline of the overhead.
		time.Sleep(r.seconds / 2)
		tracing.Store(true)
	}
	wg.Wait()
	wall, cpu := ph.end(out)
	for _, c := range cls {
		c.http.CloseIdleConnections()
	}
	counters := st.distCounters()
	for k, v := range warm {
		counters[k] -= v
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	var all []*jobRecord
	for _, c := range cls {
		all = append(all, c.records...)
	}
	var untracedLat, tracedLat []time.Duration
	refused := 0
	for _, rec := range all {
		out.attempted++
		if rec.err != nil {
			if rec.refused {
				refused++
			}
			out.fail("client %d job %s: %v", rec.client, rec.id, rec.err)
			continue
		}
		d := rec.t1.Sub(rec.t0)
		if rec.traced {
			tracedLat = append(tracedLat, d)
		} else {
			untracedLat = append(untracedLat, d)
		}
	}
	out.lat = untracedLat
	if r.rec != nil {
		out.lat = append(append([]time.Duration(nil), untracedLat...), tracedLat...)
	}
	out.opsPerSec = float64(len(out.lat)) / wall.Seconds()
	out.latencies()
	// Two clients' jobs overlap, so a job's CPU is not its own: the whole
	// process's CPU over the timed phase (clients, server, coordinator,
	// workers, collector) is shared out over the jobs answered.
	if len(out.lat) > 0 {
		out.cpuPerOp = cpu / time.Duration(len(out.lat))
	}

	probes, err := verifyJobs(out, cls, all)
	if err != nil {
		return nil, err
	}

	kinds := make(map[jobKind]int)
	for _, rec := range all {
		if rec.q != nil {
			kinds[rec.q.kind]++
		}
	}
	out.name("job_p50_ms", ms(median(out.lat)), "ms")
	out.name("job_p95_ms", ms(percentile(out.lat, 95)), "ms")
	out.name("jobs_per_s", out.opsPerSec, "1/s")
	for _, k := range []jobKind{kindFresh, kindSubset, kindRepeat} {
		out.name("jobs_"+k.String(), float64(kinds[k]), "count")
	}
	out.name("cert_gap_mean", mean(out.gaps), "ratio")
	out.name("alloc_mb", float64(out.mem.allocBytes)/1e6, "MB")
	out.name("peak_heap_mb", float64(out.mem.peakHeapBytes)/1e6, "MB")
	out.name("error_ratio", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")

	if r.rec != nil {
		layer := tracedJobs(r, st, all, probes, counters)
		layer["server.refused"] = float64(refused)
		layer["trace.overhead_ms"] = ms(median(tracedLat)) - ms(median(untracedLat))
		out.layer = layer
	}
	return out, nil
}

// probe is the benchmark's own timing of one system's scenario compile
// and fingerprint, measured while verifying.
type probe struct {
	compile, fingerprint time.Duration
}

// verifyJobs recomputes every distinct question with experiments.Sweep in
// this process: each served TSV must be byte-identical to it. It returns
// the per-system scenario probes and fills the certificate gaps.
func verifyJobs(out *outcome, cls []*jobClient, all []*jobRecord) (map[string]probe, error) {
	type sysWork struct {
		spec      scenario.Spec
		questions map[string][]*jobRecord
	}
	work := make(map[string]*sysWork)
	var order []string
	for _, rec := range all {
		if rec.err != nil {
			continue
		}
		spec := cls[rec.client].gen.systems[rec.q.system]
		w := work[spec.Name]
		if w == nil {
			w = &sysWork{spec: spec, questions: make(map[string][]*jobRecord)}
			work[spec.Name] = w
			order = append(order, spec.Name)
		}
		w.questions[rec.q.key] = append(w.questions[rec.q.key], rec)
	}
	var (
		mu     sync.Mutex
		probes = make(map[string]probe)
		wg     sync.WaitGroup
		next   atomic.Int64
		errs   []error
	)
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				sw := work[order[i]]
				pr, gaps, fails, err := verifySystem(sw.spec, sw.questions)
				mu.Lock()
				probes[order[i]] = pr
				out.gaps = append(out.gaps, gaps...)
				for _, f := range fails {
					out.fail("%s", f)
				}
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return probes, errors.Join(errs...)
}

func verifySystem(spec scenario.Spec, questions map[string][]*jobRecord) (probe, []float64, []string, error) {
	var pr probe
	t := time.Now()
	res, err := scenario.Compile(spec)
	pr.compile = time.Since(t)
	if err != nil {
		return pr, nil, nil, fmt.Errorf("verify %s: %w", spec.Name, err)
	}
	t = time.Now()
	if _, err := scenario.Fingerprint(res.System); err != nil {
		return pr, nil, nil, err
	}
	pr.fingerprint = time.Since(t)
	var (
		gaps  []float64
		fails []string
	)
	for _, recs := range questions {
		q := recs[0].q
		classes := make([]*core.Class, len(q.classes))
		for i, name := range q.classes {
			if classes[i], err = core.ClassByName(res.System.Topo, res.System.Spec.Tlat, name); err != nil {
				return pr, nil, nil, err
			}
		}
		fig, err := experiments.Sweep(res.System, classes, "", experiments.Options{Parallel: 1}, nil)
		if err != nil {
			return pr, nil, nil, fmt.Errorf("verify %s: %w", q.key, err)
		}
		var want bytes.Buffer
		if err := fig.WriteTSV(&want); err != nil {
			return pr, nil, nil, err
		}
		for _, rec := range recs {
			if !bytes.Equal(rec.tsv, want.Bytes()) {
				fails = append(fails, fmt.Sprintf("job %s (%s, %s): served TSV differs from experiments.Sweep", rec.id, q.key, q.kind))
			}
		}
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if !p.Infeasible {
					gaps = append(gaps, certGap(p.Feasible, p.Bound))
				}
			}
		}
	}
	return pr, gaps, fails, nil
}

// tracedJobs assembles each traced job's spans from what the clients,
// the dispatcher wrapper and the worker wrappers recorded, and derives
// the per-layer metrics.
//
// A job's span holds its submit round trip, its queue wait and run (from
// the job view's timestamps), and its TSV fetch. The run holds the
// server's scenario compile and fingerprint and each column the
// dispatcher answered, from the store or by dispatch; a dispatch holds
// the worker's handling, which holds the worker's rebuild (compile and
// fingerprint) and the column's LP solves.
//
// The scenario spans are an estimate, not a figure of the program.
// Compile and fingerprint run inside the server and the workers, out of
// the benchmark's reach, and the program counts neither. So each
// non-cached job and each worker solve is assumed to compile once, and
// its spans take the durations the benchmark measured compiling the same
// system while verifying. scenario.compiles would not move if the server
// or a worker compiled more or less often. The spans are carved out of
// server.run and dist.worker_solve, so the scenario+server+dist share of
// job self time is the same with or without them.
func tracedJobs(r *run, st *stack, all []*jobRecord, probes map[string]probe, counters map[string]float64) map[string]float64 {
	rec := r.rec
	layer := make(map[string]float64)
	var (
		workers    []workerRecord
		submit     []time.Duration
		queue      []time.Duration
		runs       []time.Duration
		storeCols  []time.Duration
		dispCols   []time.Duration
		workerDur  []time.Duration
		agg        lp.Stats
		compiles   int
		compileSum time.Duration
		fpSum      time.Duration
		cached     int
		traced     int
		cells      int
		shardBytes int
	)
	for _, w := range st.workers {
		workers = append(workers, w.solves...)
	}
	for _, w := range workers {
		workerDur = append(workerDur, w.end.Sub(w.start))
		shardBytes += w.bytes
	}
	scenarioSpans := func(id string, parent int, at time.Time, pr probe) {
		rec.addDur("scenario.compile", id, parent, at, pr.compile)
		rec.addDur("scenario.fingerprint", id, parent, at.Add(pr.compile), pr.fingerprint)
		compiles++
		compileSum += pr.compile
		fpSum += pr.fingerprint
	}
	for i, jr := range all {
		if jr.err != nil || !jr.traced {
			continue
		}
		traced++
		id := fmt.Sprintf("c%d/j%d", jr.client, i)
		root := rec.add("client.job", id, -1, jr.t0, jr.t1)
		rec.add("server.submit", id, root, jr.t0, jr.tSubmit)
		submit = append(submit, jr.tSubmit.Sub(jr.t0))
		rec.add("server.result", id, root, jr.tStream, jr.t1)
		if jr.cached {
			cached++
			continue
		}
		started, finished := jr.view.Started, jr.view.Finished
		if started == nil || finished == nil {
			continue
		}
		cells += 2 * len(jr.q.classes)
		queue = append(queue, started.Sub(jr.view.Created))
		runs = append(runs, finished.Sub(*started))
		rec.add("server.queue", id, root, jr.view.Created, *started)
		run := rec.add("server.run", id, root, *started, *finished)
		system := strings.SplitN(jr.q.key, "/", 2)[0]
		pr := probes[system]
		scenarioSpans(id, run, *started, pr)
		asked := make(map[string]bool)
		for _, c := range jr.q.classes {
			asked[c] = true
		}
		for _, c := range st.disp.cols {
			if c.system != system || !asked[c.class] || c.start.Before(jr.t0) || c.end.After(jr.t1) {
				continue
			}
			if c.fromStore {
				rec.add("dist.store", id, run, c.start, c.end)
				storeCols = append(storeCols, c.end.Sub(c.start))
				continue
			}
			col := rec.add("dist.dispatch", id, run, c.start, c.end)
			dispCols = append(dispCols, c.end.Sub(c.start))
			agg.Add(c.stats)
			for _, w := range workers {
				if w.system != system || w.class != c.class || w.start.Before(c.start) || w.end.After(c.end) {
					continue
				}
				ws := rec.add("dist.worker_solve", id, col, w.start, w.end)
				scenarioSpans(id, ws, w.start, pr)
				rec.addDur("lp.solve", id, ws, w.start.Add(pr.compile+pr.fingerprint), c.stats.Wall)
			}
		}
	}
	spans := rec.snapshot()
	traceMetrics(layer, spans)
	layer["scenario.compile_s"] = compileSum.Seconds()
	layer["scenario.fingerprint_s"] = fpSum.Seconds()
	layer["scenario.compiles"] = float64(compiles)
	layer["experiments.cells"] = float64(cells)
	layer["server.submit_ms"] = meanMS(submit)
	layer["server.queue_wait_p95_ms"] = ms(percentile(queue, 95))
	layer["server.run_ms"] = meanMS(runs)
	if traced > 0 {
		layer["server.cache_hit_ratio"] = float64(cached) / float64(traced)
	}
	layer["dist.column_store_ms"] = meanMS(storeCols)
	layer["dist.column_dispatch_ms"] = meanMS(dispCols)
	layer["dist.worker_solve_ms"] = meanMS(workerDur)
	layer["dist.dispatch_overhead_ms"] = meanMS(dispCols) - meanMS(workerDur)
	hits, misses := counters["placementd_dist_store_hits_total"], counters["placementd_dist_store_misses_total"]
	if hits+misses > 0 {
		layer["dist.store_hit_ratio"] = hits / (hits + misses)
	}
	layer["dist.shards_dispatched"] = counters["placementd_dist_shards_dispatched_total"]
	layer["dist.shard_retries"] = counters["placementd_dist_shard_retries_total"]
	layer["dist.shard_bytes"] = float64(shardBytes)
	lpMetrics(layer, agg)
	return layer
}

func meanMS(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return ms(s) / float64(len(xs))
}
