package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/replica"
)

// replicaServer boots one multi-replica daemon over the shared dir,
// returning the test server and the coordinator behind it.
func replicaServer(t *testing.T, dir, id string, exps []core.Experiment, peers ...string) (*httptest.Server, *Server, *replica.Coordinator) {
	t.Helper()
	rec := obs.NewRecorder()
	var store *ckpt.Store
	if dir != "" {
		s, err := ckpt.NewStore(dir, rec.Registry())
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		store = s
	}
	coord := replica.New(replica.Config{
		ID:           id,
		Store:        store,
		Peers:        peers,
		TTL:          200 * time.Millisecond,
		Poll:         10 * time.Millisecond,
		FetchTimeout: time.Second,
		BackoffBase:  5 * time.Millisecond,
		Rec:          rec,
	})
	srv := New(Config{Base: tinyConfig(), Experiments: exps, Store: store, Replica: coord, Rec: rec})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, coord
}

// TestTwoReplicasServeIdenticalBytes: one replica builds, the sibling
// over the same checkpoint dir serves from the store — same bytes, one
// build between them.
func TestTwoReplicasServeIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{}
	exps := []core.Experiment{stubExperiment("stub1", st)}
	tsA, _, _ := replicaServer(t, dir, "r0", exps)
	tsB, _, _ := replicaServer(t, dir, "r1", exps)
	client := &http.Client{}

	codeA, bodyA := get(t, client, tsA.URL+"/v1/artifacts/stub1")
	codeB, bodyB := get(t, client, tsB.URL+"/v1/artifacts/stub1")
	if codeA != 200 || codeB != 200 {
		t.Fatalf("status A=%d B=%d", codeA, codeB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("replica bodies differ:\nA: %s\nB: %s", bodyA, bodyB)
	}
	if n := st.runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times across 2 replicas, want 1", n)
	}
}

// TestCacheFillEndpoint: a warm replica streams the exact checkpoint
// payload from /v1/cache/{key}; invalid keys are rejected before they
// can touch the filesystem, cold keys 404.
func TestCacheFillEndpoint(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{}
	exps := []core.Experiment{stubExperiment("stub1", st)}
	ts, _, _ := replicaServer(t, dir, "r0", exps)
	client := &http.Client{}

	if code, _ := get(t, client, ts.URL+"/v1/artifacts/stub1"); code != 200 {
		t.Fatalf("warm GET: %d", code)
	}
	key := core.CheckpointKey(tinyConfig(), "stub1")
	code, payload := get(t, client, ts.URL+"/v1/cache/"+key)
	if code != 200 {
		t.Fatalf("cache fill: status %d body %s", code, payload)
	}
	var res core.Result
	if err := json.Unmarshal(payload, &res); err != nil || res.ID != "stub1" {
		t.Fatalf("cache-fill payload: %v (id %q)", err, res.ID)
	}
	if code, _ := get(t, client, ts.URL+"/v1/cache/"+strings.Repeat("0", 64)); code != 404 {
		t.Fatalf("cold key: status %d, want 404", code)
	}
	for _, bad := range []string{"short", strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		if code, _ := get(t, client, ts.URL+"/v1/cache/"+bad); code != 400 && code != 404 {
			t.Fatalf("key %q: status %d, want 400/404", bad, code)
		}
	}
}

// TestCacheFillWithoutReplicaMode: a daemon started without a replica
// coordinator (it makes its own, with no store) answers a fill for a
// key it does not hold with 404.
func TestCacheFillWithoutReplicaMode(t *testing.T) {
	st := &stubState{}
	srv := New(Config{Base: tinyConfig(), Experiments: []core.Experiment{stubExperiment("stub1", st)}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, _ := get(t, &http.Client{}, ts.URL+"/v1/cache/"+strings.Repeat("a", 64))
	if code != 404 {
		t.Fatalf("status %d, want 404", code)
	}
}

// TestPeerFillAcrossDaemons: replica B has no shared store, only a
// peer pointing at warm replica A — its first request must be served
// via HTTP cache fill, with zero experiment runs of its own.
func TestPeerFillAcrossDaemons(t *testing.T) {
	dir := t.TempDir()
	stA := &stubState{}
	tsA, _, _ := replicaServer(t, dir, "r0", []core.Experiment{stubExperiment("stub1", stA)})
	client := &http.Client{}
	if code, _ := get(t, client, tsA.URL+"/v1/artifacts/stub1"); code != 200 {
		t.Fatalf("warm A: %d", code)
	}

	stB := &stubState{}
	tsB, _, _ := replicaServer(t, "", "r1", []core.Experiment{stubExperiment("stub1", stB)},
		strings.TrimPrefix(tsA.URL, "http://"))
	_, bodyA := get(t, client, tsA.URL+"/v1/artifacts/stub1")
	codeB, bodyB := get(t, client, tsB.URL+"/v1/artifacts/stub1")
	if codeB != 200 {
		t.Fatalf("B: status %d", codeB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("peer-filled body differs:\nA: %s\nB: %s", bodyA, bodyB)
	}
	if n := stB.runs.Load(); n != 0 {
		t.Fatalf("B ran the experiment %d times, want 0 (peer fill)", n)
	}
}

// TestHealthzDegradedStillOK: with the checkpoint store unwritable the
// daemon keeps serving and /healthz stays 200 but reports the
// degradation — flipping to non-200 would tell the load balancer to
// drop the one replica that still has the bytes.
func TestHealthzDegradedStillOK(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{}
	ts, _, coord := replicaServer(t, dir, "r0", []core.Experiment{stubExperiment("stub1", st)})
	client := &http.Client{}

	code, body := get(t, client, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthy: code %d body %s", code, body)
	}
	if !strings.Contains(string(body), `"replica":"r0"`) {
		t.Fatalf("healthz does not name the replica: %s", body)
	}

	// Force the degradation the way the coordinator records it.
	if len(coord.Degraded()) != 0 {
		t.Fatalf("pre-degraded: %v", coord.Degraded())
	}
	defer fault.Enable(fault.NewPlan(fault.Rule{Site: replica.SiteCkptWrite, Kind: fault.Error}))()
	if code, _ := get(t, client, ts.URL+"/v1/artifacts/stub1"); code != 200 {
		t.Fatalf("degraded build: status %d", code)
	}
	// Nothing reached the store; the artifact tier serves the repeat.
	if code, _ := get(t, client, ts.URL+"/v1/artifacts/stub1"); code != 200 || st.runs.Load() != 1 {
		t.Fatalf("degraded repeat: status %d after %d runs, want 200 after 1", code, st.runs.Load())
	}
	code, body = get(t, client, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("degraded /healthz: status %d, want 200", code)
	}
	if !strings.Contains(string(body), `"status":"degraded"`) || !strings.Contains(string(body), "store:") {
		t.Fatalf("degraded /healthz body: %s", body)
	}
}

// TestCacheFillDrainExempt: a draining replica keeps answering cache
// fills (its warm cache is what the siblings want on the way out) while
// artifact routes 503.
func TestCacheFillDrainExempt(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{}
	ts, srv, _ := replicaServer(t, dir, "r0", []core.Experiment{stubExperiment("stub1", st)})
	client := &http.Client{}
	if code, _ := get(t, client, ts.URL+"/v1/artifacts/stub1"); code != 200 {
		t.Fatal("warm failed")
	}
	srv.BeginDrain()
	if code, _ := get(t, client, ts.URL+"/v1/artifacts/stub1"); code != http.StatusServiceUnavailable {
		t.Fatalf("artifact during drain: %d, want 503", code)
	}
	key := core.CheckpointKey(tinyConfig(), "stub1")
	if code, _ := get(t, client, ts.URL+"/v1/cache/"+key); code != 200 {
		t.Fatalf("cache fill during drain: %d, want 200", code)
	}
}
