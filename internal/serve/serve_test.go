package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
)

// tinyConfig is a seconds-fast scenario: the byte-identity tests only
// use workload-side experiments, so the simulation fields are minimal.
// The workload horizon stays at the quick scale's full day — shorter
// horizons starve some distributions into NaN metrics, which neither
// JSON nor the checkpoint store accepts.
func tinyConfig() core.Config {
	return core.Config{
		Seed:                   7,
		Machines:               8,
		SimHorizon:             86400,
		WorkloadHorizon:        86400,
		WorkloadMaxTasksPerJob: 40,
		SampleMachines:         4,
	}
}

// stubState wires a controllable experiment into a server: runs counts
// Run invocations, entered signals each Run entry, release (when
// non-nil) blocks Run until closed.
type stubState struct {
	runs    atomic.Int64
	entered chan struct{}
	release chan struct{}
}

// stubExperiment touches the google_tasks cell (so coalescing is
// observable via core.cell.google_tasks.miss) and then defers to the
// stub's synchronization knobs.
func stubExperiment(id string, st *stubState) core.Experiment {
	return core.Experiment{ID: id, Title: "stub " + id, Run: func(c *core.Context) (*core.Result, error) {
		st.runs.Add(1)
		if _, err := c.GoogleTasks(); err != nil {
			return nil, err
		}
		if st.entered != nil {
			st.entered <- struct{}{}
		}
		if st.release != nil {
			<-st.release
		}
		return &core.Result{ID: id, Title: "stub " + id, Metrics: map[string]float64{"n": 1}}, nil
	}}
}

func get(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// servedBody is one expected response: a path and the bytes the CLI
// side produces for it.
type servedBody struct {
	path string
	want []byte
}

// cliBodies derives every servable body from CLI-side results: JSON as
// the marshalled result, markdown via the shared core renderer, CSV and
// .dat as the very files report.SaveCSV/SaveDAT write, and /v1/report
// as markdown and JSON, with and without ?extensions=1.
func cliBodies(t *testing.T, cfg core.Config, paper, ext []*core.Result) []servedBody {
	t.Helper()
	var out []servedBody
	add := func(path string, want []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, servedBody{path, want})
	}
	all := append(append([]*core.Result(nil), paper...), ext...)
	outDir := t.TempDir()
	for _, r := range all {
		b, err := json.Marshal(r)
		add("/v1/artifacts/"+r.ID, b, err)
		var md bytes.Buffer
		err = core.WriteResultMarkdown(&md, r)
		add("/v1/artifacts/"+r.ID+"?format=md", md.Bytes(), err)
		for _, tbl := range r.Tables {
			path, err := tbl.SaveCSV(outDir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			add(fmt.Sprintf("/v1/artifacts/%s/tables/%s", r.ID, tbl.ID), b, err)
		}
		for _, ser := range r.Series {
			path, err := ser.SaveDAT(outDir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			add(fmt.Sprintf("/v1/artifacts/%s/series/%s", r.ID, ser.ID), b, err)
		}
	}
	for _, rep := range []struct {
		query   string
		results []*core.Result
	}{{"", paper}, {"?extensions=1", all}} {
		var md bytes.Buffer
		err := core.WriteMarkdownReport(&md, cfg, rep.results, nil)
		add("/v1/report"+rep.query, md.Bytes(), err)
		sep := "?"
		if rep.query != "" {
			sep = "&"
		}
		b, err := json.Marshal(rep.results)
		add("/v1/report"+rep.query+sep+"format=json", b, err)
	}
	return out
}

// TestServedBytesIdentical is the daemon's determinism contract: for
// the same config, every body served over HTTP — each artifact as JSON
// and markdown, each table's CSV, each series' .dat, the report as
// markdown and JSON with and without the extensions — is byte-identical
// to what cmd/repro emits, whichever way the bytes reached the daemon:
// built in this process, loaded from a checkpoint store the CLI warmed,
// filled from a peer, or rebuilt after the scenario was evicted.
func TestServedBytesIdentical(t *testing.T) {
	// Seed 1, not tinyConfig's 7: this test builds the whole registry
	// five times, and under seed 7 the ext-queueing grid simulation
	// alone takes ~7 s per build (~0.7 s for the whole registry here).
	cfg := tinyConfig()
	cfg.Seed = 1

	// The CLI side: the same runner cmd/repro invokes, serially, here
	// also writing the checkpoints the "checkpoint" way serves from.
	store, err := ckpt.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(exps []core.Experiment) []*core.Result {
		t.Helper()
		res, err := core.RunExperiments(context.Background(), core.NewContext(cfg), exps, core.RunOptions{Workers: 1, Ckpt: store})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	paper, ext := run(core.Experiments()), run(core.Extensions())
	bodies := cliBodies(t, cfg, paper, ext)
	n := int64(len(paper) + len(ext))

	// A warm daemon with no store: the peer the "peer" way fills from.
	origin := New(Config{Base: cfg})
	if _, err := origin.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	for _, way := range []struct {
		name string
		// boot returns a daemon and the counts of builds, store loads
		// and peer fills the served bytes must have arrived through.
		boot                 func(rec *obs.Recorder) *Server
		builds, loads, fills int64
	}{
		{"built", func(rec *obs.Recorder) *Server {
			return New(Config{Base: cfg, Rec: rec})
		}, n, 0, 0},
		{"checkpoint", func(rec *obs.Recorder) *Server {
			return New(Config{Base: cfg, Rec: rec, Store: store})
		}, 0, n, 0},
		{"peer", func(rec *obs.Recorder) *Server {
			coord := replica.New(replica.Config{ID: "filler", Peers: []string{originTS.URL}, Rec: rec})
			return New(Config{Base: cfg, Rec: rec, Replica: coord})
		}, 0, 0, n},
		{"evicted", func(rec *obs.Recorder) *Server {
			// One scenario slot: warm the base scenario, then evict it
			// with another seed, so every body below is a rebuild.
			s := New(Config{Base: cfg, Rec: rec, MaxContexts: 1})
			if _, err := s.Prewarm(context.Background()); err != nil {
				t.Fatal(err)
			}
			other := cfg
			other.Seed++
			s.entryFor(context.Background(), other)
			return s
		}, 2 * n, 0, 0},
	} {
		t.Run(way.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			s := way.boot(rec)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			// Four clients at once, each starting at a different body:
			// concurrent first requests share one build and one render.
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := range bodies {
						b := bodies[(i+c*len(bodies)/4)%len(bodies)]
						resp, err := ts.Client().Get(ts.URL + b.path)
						if err != nil {
							t.Errorf("GET %s: %v", b.path, err)
							return
						}
						body, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, b.want) {
							t.Errorf("GET %s: status %d (%v), served bytes differ from the CLI's", b.path, resp.StatusCode, err)
						}
					}
				}(c)
			}
			wg.Wait()
			reg := rec.Registry()
			for _, c := range []struct {
				name string
				want int64
			}{
				{"replica.build.done", way.builds},
				{"replica.store.hit", way.loads},
				{"replica.peer.fill", way.fills},
			} {
				if got := reg.Counter(c.name).Value(); got != c.want {
					t.Errorf("%s = %d, want %d", c.name, got, c.want)
				}
			}
		})
	}
}

// TestCoalescingOneBuild fires 100 concurrent requests at one cold
// artifact and requires exactly one build: one Run invocation, one
// core.cell.google_tasks.miss, and 99 coalesced waiters.
func TestCoalescingOneBuild(t *testing.T) {
	st := &stubState{release: make(chan struct{})}
	rec := obs.NewRecorder()
	cfg := tinyConfig()
	s := New(Config{
		Base:        cfg,
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxInflight: 128,
		MaxQueue:    256,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const n = 100
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = get(t, client, ts.URL+"/v1/artifacts/stub")
		}(i)
	}

	// Every request must be in the flight before the build may finish:
	// one leader inside Run, 99 parked on the coalescer.
	e := s.entryFor(context.Background(), cfg)
	waitFor(t, "99 coalesced waiters", func() bool { return e.sf.waiting("stub") == n-1 })
	close(st.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
	}
	if got := st.runs.Load(); got != 1 {
		t.Errorf("stub ran %d times, want exactly 1", got)
	}
	reg := rec.Registry()
	if got := reg.Counter("core.cell.google_tasks.miss").Value(); got != 1 {
		t.Errorf("core.cell.google_tasks.miss = %d, want exactly 1", got)
	}
	if got := reg.Counter("serve.coalesce.shared").Value(); got != n-1 {
		t.Errorf("serve.coalesce.shared = %d, want %d", got, n-1)
	}
}

// TestAdmissionGateRejects fills the single slot and the 2-deep queue,
// then requires the next request to bounce with 429 while everyone
// admitted still completes.
func TestAdmissionGateRejects(t *testing.T) {
	st := &stubState{entered: make(chan struct{}, 8), release: make(chan struct{})}
	rec := obs.NewRecorder()
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxInflight: 1,
		MaxQueue:    2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + "/v1/artifacts/stub"

	codes := make([]int, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); codes[0], _ = get(t, client, url) }()
	<-st.entered // the slot-holder is now inside Run

	reg := rec.Registry()
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); codes[i], _ = get(t, client, url) }(i)
	}
	waitFor(t, "2 queued requests", func() bool { return reg.Gauge("serve.gate.queued").Value() == 2 })

	code, body := get(t, client, url)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: status %d (%s), want 429", code, body)
	}
	if got := reg.Counter("serve.gate.rejected").Value(); got != 1 {
		t.Errorf("serve.gate.rejected = %d, want 1", got)
	}

	close(st.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
}

// TestDrainLetsInflightFinish begins a drain with one request mid-build
// and checks the drain contract: new requests (healthz included) get
// 503 immediately, the in-flight one still completes.
func TestDrainLetsInflightFinish(t *testing.T) {
	st := &stubState{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	inflightCode := make(chan int, 1)
	go func() {
		code, _ := get(t, client, ts.URL+"/v1/artifacts/stub")
		inflightCode <- code
	}()
	<-st.entered

	s.BeginDrain()
	if code, body := get(t, client, ts.URL+"/v1/artifacts/stub"); code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d (%s), want 503", code, body)
	} else if !strings.Contains(string(body), "draining") {
		t.Fatalf("new request during drain: body %s, want a draining notice", body)
	}
	if code, _ := get(t, client, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", code)
	}

	close(st.release)
	if code := <-inflightCode; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestContextLRUEviction bounds the per-scenario cache at 2 and walks
// three seeds: the oldest is evicted and rebuilds on return, the
// surviving one is served from memory.
func TestContextLRUEviction(t *testing.T) {
	st := &stubState{}
	rec := obs.NewRecorder()
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxContexts: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for seed := 1; seed <= 3; seed++ {
		if code, body := get(t, client, fmt.Sprintf("%s/v1/artifacts/stub?seed=%d", ts.URL, seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
	}
	reg := rec.Registry()
	if got := reg.Counter("serve.ctx.evicted").Value(); got != 1 {
		t.Errorf("serve.ctx.evicted = %d, want 1", got)
	}
	if got := s.lru.len(); got != 2 {
		t.Errorf("live contexts = %d, want 2", got)
	}
	if got := st.runs.Load(); got != 3 {
		t.Fatalf("stub ran %d times over 3 scenarios, want 3", got)
	}

	// seed=3 survived: memoized, no rebuild. seed=1 was evicted: rebuilds.
	get(t, client, ts.URL+"/v1/artifacts/stub?seed=3")
	if got := st.runs.Load(); got != 3 {
		t.Errorf("cached scenario rebuilt: runs = %d, want 3", got)
	}
	get(t, client, ts.URL+"/v1/artifacts/stub?seed=1")
	if got := st.runs.Load(); got != 4 {
		t.Errorf("evicted scenario: runs = %d, want 4", got)
	}
}

// TestWarmStartFromCheckpoints serves an artifact once with a
// checkpoint store attached, then boots a second daemon on the same
// directory: it must answer byte-identically from disk with zero cell
// builds and zero experiment runs.
func TestWarmStartFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	table1, err := core.Find("table1")
	if err != nil {
		t.Fatal(err)
	}

	store1, err := ckpt.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Base: cfg, Experiments: []core.Experiment{table1}, Store: store1})
	ts1 := httptest.NewServer(s1.Handler())
	code, body1 := get(t, ts1.Client(), ts1.URL+"/v1/artifacts/table1")
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("cold serve: status %d: %s", code, body1)
	}

	rec2 := obs.NewRecorder()
	store2, err := ckpt.NewStore(dir, rec2.Registry())
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Base: cfg, Experiments: []core.Experiment{table1}, Store: store2, Rec: rec2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, body2 := get(t, ts2.Client(), ts2.URL+"/v1/artifacts/table1")
	if code != http.StatusOK {
		t.Fatalf("warm serve: status %d: %s", code, body2)
	}
	if string(body1) != string(body2) {
		t.Error("warm-started bytes differ from cold-built bytes")
	}
	reg2 := rec2.Registry()
	if got := reg2.Counter("ckpt.hit").Value(); got != 1 {
		t.Errorf("ckpt.hit = %d, want 1", got)
	}
	for _, cell := range []string{"google_tasks", "google_jobs"} {
		if got := reg2.Counter("core.cell." + cell + ".miss").Value(); got != 0 {
			t.Errorf("warm start rebuilt cell %s (%d misses), want 0", cell, got)
		}
	}
}

// TestScenarioParamsAndErrors covers the request-validation surface:
// bad scenario parameters, unknown artifacts/tables/formats, plus the
// healthz/metrics/experiments happy paths.
func TestScenarioParamsAndErrors(t *testing.T) {
	st := &stubState{}
	s := New(Config{Base: tinyConfig(), Experiments: []core.Experiment{stubExperiment("stub", st)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/artifacts/stub?machines=0", http.StatusBadRequest},
		{"/v1/artifacts/stub?machines=notanumber", http.StatusBadRequest},
		{"/v1/artifacts/stub?days=9999", http.StatusBadRequest},
		{"/v1/artifacts/stub?workload_days=-3", http.StatusBadRequest},
		{"/v1/artifacts/stub?seed=abc", http.StatusBadRequest},
		{"/v1/artifacts/stub?format=xml", http.StatusBadRequest},
		{"/v1/artifacts/nope", http.StatusNotFound},
		{"/v1/artifacts/stub/tables/nope", http.StatusNotFound},
		{"/v1/artifacts/stub/series/nope", http.StatusNotFound},
		{"/v1/report?format=csv", http.StatusBadRequest},
		{"/v1/artifacts/stub?seed=11&machines=12&days=2&workload_days=1", http.StatusOK},
	} {
		if code, body := get(t, client, ts.URL+tc.path); code != tc.want {
			t.Errorf("GET %s: status %d (%s), want %d", tc.path, code, body, tc.want)
		}
	}

	code, body := get(t, client, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var hs healthStatus
	if err := json.Unmarshal(body, &hs); err != nil || hs.Status != "ok" || hs.Experiments != 1 {
		t.Errorf("healthz payload %s (err %v), want status ok with 1 experiment", body, err)
	}

	code, body = get(t, client, ts.URL+"/v1/experiments")
	var infos []experimentInfo
	if code != http.StatusOK || json.Unmarshal(body, &infos) != nil || len(infos) != 1 || infos[0].ID != "stub" {
		t.Errorf("experiments: status %d payload %s, want the stub listing", code, body)
	}

	// Default /metrics is Prometheus text; JSONL stays available by
	// query param and by Accept header.
	code, body = get(t, client, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "serve_req_total") {
		t.Errorf("metrics: status %d, body missing serve_req_total", code)
	}
	if _, err := obs.ParsePrometheus(bytes.NewReader(body)); err != nil {
		t.Errorf("metrics: default exposition does not parse: %v", err)
	}
	code, body = get(t, client, ts.URL+"/metrics?format=jsonl")
	if code != http.StatusOK || !strings.Contains(string(body), `"serve.req.total"`) {
		t.Errorf("metrics?format=jsonl: status %d, body missing serve.req.total", code)
	}
	if code, _ := get(t, client, ts.URL+"/metrics?format=xml"); code != http.StatusBadRequest {
		t.Errorf("metrics?format=xml: status %d, want 400", code)
	}
}
