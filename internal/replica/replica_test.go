package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/obs"
)

// artifact stands in for a core.Result: any JSON-round-trippable value.
type artifact struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

// decode unmarshals a payload Do returned.
func decode(t *testing.T, payload []byte) *artifact {
	t.Helper()
	var a artifact
	if err := json.Unmarshal(payload, &a); err != nil {
		t.Fatalf("payload %q: %v", payload, err)
	}
	return &a
}

func buildArtifact(name string, calls *atomic.Int64) func(context.Context) (any, error) {
	return func(context.Context) (any, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &artifact{Name: name, Vals: []float64{1, 2.5, 3}}, nil
	}
}

// testCoordinator opens a coordinator over dir with fast test timings.
func testCoordinator(t *testing.T, dir, id string, peers ...string) *Coordinator {
	t.Helper()
	var store *ckpt.Store
	if dir != "" {
		s, err := ckpt.NewStore(dir, obs.NewRegistry())
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		store = s
	}
	return New(Config{
		ID:           id,
		Store:        store,
		Peers:        peers,
		TTL:          150 * time.Millisecond,
		Heartbeat:    40 * time.Millisecond,
		Poll:         10 * time.Millisecond,
		FetchTimeout: time.Second,
		Retries:      2,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
	})
}

func counter(c *Coordinator, name string) int64 {
	for _, m := range c.rec.Registry().Snapshot() {
		if m.Name == name && m.Type == "counter" {
			return int64(m.Value)
		}
	}
	return 0
}

func TestDoBuildsOnceThenServesFromTiers(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	var calls atomic.Int64
	key := ckpt.Key("replica", "tiers")

	v, src, err := a.Do(context.Background(), key, "tiers", buildArtifact("tiers", &calls))
	if err != nil || src != SourceBuild {
		t.Fatalf("first Do: src=%v err=%v", src, err)
	}
	if got := decode(t, v).Name; got != "tiers" {
		t.Fatalf("value = %q", got)
	}
	// The coordinator keeps no in-process tier: a repeat reads the store.
	_, src, err = a.Do(context.Background(), key, "tiers", buildArtifact("tiers", &calls))
	if err != nil || src != SourceStore {
		t.Fatalf("second Do: src=%v err=%v", src, err)
	}
	// A fresh replica over the same directory hits the store too.
	b := testCoordinator(t, dir, "r1")
	_, src, err = b.Do(context.Background(), key, "tiers", buildArtifact("tiers", &calls))
	if err != nil || src != SourceStore {
		t.Fatalf("sibling Do: src=%v err=%v", src, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	if _, ok, _ := a.leases.read(key); ok {
		t.Fatal("lease file left behind after a completed build")
	}
}

func TestConcurrentReplicasBuildOnce(t *testing.T) {
	dir := t.TempDir()
	reps := []*Coordinator{
		testCoordinator(t, dir, "r0"),
		testCoordinator(t, dir, "r1"),
		testCoordinator(t, dir, "r2"),
	}
	var calls atomic.Int64
	key := ckpt.Key("replica", "stampede")
	var wg sync.WaitGroup
	payloads := make([]string, len(reps)*4)
	errs := make([]error, len(reps)*4)
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := reps[i%len(reps)].Do(context.Background(), key, "stampede", buildArtifact("stampede", &calls))
			errs[i] = err
			payloads[i] = string(v)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Do[%d]: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("build ran %d times across 3 replicas, want exactly 1", n)
	}
	for i := 1; i < len(payloads); i++ {
		if payloads[i] != payloads[0] {
			t.Fatalf("payload[%d] = %q differs from payload[0] = %q", i, payloads[i], payloads[0])
		}
	}
}

// TestLeaseTakeoverRebuildsByteIdentical is the killed-leader scenario:
// replica A claims the key and starts building, then "dies" — a chaos
// rule on replica.lease.renew severs its first heartbeat, and its build
// hangs until the test cancels it. Replica B waits out the TTL, deletes
// the stale lease, takes the key over and rebuilds; the bytes it serves
// must equal what a clean serial build produces.
func TestLeaseTakeoverRebuildsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	b := testCoordinator(t, dir, "r1")
	key := ckpt.Key("replica", "takeover")

	defer fault.Enable(fault.NewPlan(fault.Rule{Site: SiteLeaseRenew, Hit: 1, Kind: fault.Error}))()

	building := make(chan struct{})
	actx, kill := context.WithCancel(context.Background())
	defer kill()
	var aErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, aErr = a.Do(actx, key, "takeover", func(ctx context.Context) (any, error) {
			close(building)
			<-ctx.Done() // hangs forever: the leader is dead
			return nil, ctx.Err()
		})
	}()
	<-building

	var calls atomic.Int64
	v, src, err := b.Do(context.Background(), key, "takeover", buildArtifact("takeover", &calls))
	if err != nil {
		t.Fatalf("b.Do: %v", err)
	}
	if src != SourceBuild {
		t.Fatalf("b.Do src = %v, want build (after takeover)", src)
	}
	if calls.Load() != 1 {
		t.Fatalf("b built %d times, want 1", calls.Load())
	}
	if got := counter(b, "replica.lease.takeover"); got < 1 {
		t.Fatalf("replica.lease.takeover = %d, want >= 1", got)
	}
	kill()
	<-done
	if aErr == nil {
		t.Fatal("the killed leader's Do returned nil error")
	}

	// Byte identity: b's served payload must equal a clean serial build.
	want, _ := json.Marshal(&artifact{Name: "takeover", Vals: []float64{1, 2.5, 3}})
	gotB := v
	if string(gotB) != string(want) {
		t.Fatalf("taken-over build = %q, want %q", gotB, want)
	}
	served, ok := b.ServeLocal(key)
	if !ok || string(served) != string(want) {
		t.Fatalf("ServeLocal = %q ok=%v, want %q", served, ok, want)
	}
	// The dead leader never published, so no duplicate build landed.
	if got := counter(a, "replica.build.duplicate") + counter(b, "replica.build.duplicate"); got != 0 {
		t.Fatalf("duplicate builds = %d, want 0", got)
	}
}

func TestPeerFillStorelessReplica(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	key := ckpt.Key("replica", "fill")
	if _, _, err := a.Do(context.Background(), key, "fill", buildArtifact("fill", nil)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		payload, ok := a.ServeLocal(r.URL.Path[len("/v1/cache/"):])
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(payload)
	}))
	defer srv.Close()

	b := testCoordinator(t, "", "r1", srv.URL)
	var calls atomic.Int64
	v, src, err := b.Do(context.Background(), key, "fill", buildArtifact("fill", &calls))
	if err != nil || src != SourcePeer {
		t.Fatalf("b.Do: src=%v err=%v", src, err)
	}
	if calls.Load() != 0 {
		t.Fatal("peer fill still ran the build")
	}
	want, ok := a.ServeLocal(key)
	if !ok || string(v) != string(want) {
		t.Fatalf("peer-filled payload %q != origin payload %q", v, want)
	}
	if decode(t, v).Name != "fill" {
		t.Fatalf("value = %s", v)
	}
}

func TestPeerDefinitiveMissBuildsImmediately(t *testing.T) {
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	b := testCoordinator(t, "", "r1", srv.URL)
	var calls atomic.Int64
	_, src, err := b.Do(context.Background(), ckpt.Key("replica", "miss"), "miss", buildArtifact("miss", &calls))
	if err != nil || src != SourceBuildUnleased {
		t.Fatalf("Do: src=%v err=%v", src, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("build calls = %d, want 1", calls.Load())
	}
	// An all-404 round is final: exactly one request, no backoff rounds.
	if reqs.Load() != 1 {
		t.Fatalf("peer requests = %d, want 1 (404 is definitive)", reqs.Load())
	}
}

func TestPeerTransientErrorsRetryThenBuild(t *testing.T) {
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	b := testCoordinator(t, "", "r1", srv.URL)
	var calls atomic.Int64
	_, src, err := b.Do(context.Background(), ckpt.Key("replica", "flaky"), "flaky", buildArtifact("flaky", &calls))
	if err != nil || src != SourceBuildUnleased {
		t.Fatalf("Do: src=%v err=%v", src, err)
	}
	if reqs.Load() != 2 { // Retries=2 rounds x 1 peer
		t.Fatalf("peer requests = %d, want 2 (bounded retries)", reqs.Load())
	}
	if counter(b, "replica.peer.err") != 2 {
		t.Fatalf("replica.peer.err = %d, want 2", counter(b, "replica.peer.err"))
	}
}

func TestUnreachablePeerDegradesToLocalBuild(t *testing.T) {
	// A peer address nobody listens on: connection refused, retried,
	// then built locally. The request must still succeed.
	b := testCoordinator(t, "", "r1", "127.0.0.1:1")
	var calls atomic.Int64
	v, src, err := b.Do(context.Background(), ckpt.Key("replica", "refused"), "refused", buildArtifact("refused", &calls))
	if err != nil || src != SourceBuildUnleased {
		t.Fatalf("Do: src=%v err=%v", src, err)
	}
	if decode(t, v).Name != "refused" || calls.Load() != 1 {
		t.Fatalf("v=%s calls=%d", v, calls.Load())
	}
}

func TestUnwritableStoreDegradesButServes(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	defer fault.Enable(fault.NewPlan(fault.Rule{Site: SiteCkptWrite, Kind: fault.Error}))()

	key := ckpt.Key("replica", "readonly")
	v, src, err := a.Do(context.Background(), key, "readonly", buildArtifact("readonly", nil))
	if err != nil || src != SourceBuild {
		t.Fatalf("Do under ckpt.write fault: src=%v err=%v", src, err)
	}
	if decode(t, v).Name != "readonly" {
		t.Fatalf("v = %s", v)
	}
	deg := a.Degraded()
	if len(deg) != 1 || deg[0][:6] != "store:" {
		t.Fatalf("Degraded() = %v, want one store reason", deg)
	}
	// Nothing reached the store, so a repeat builds again and still
	// succeeds. (The daemon's in-process tier serves repeats without
	// reaching the coordinator: TestHealthzDegradedStillOK.)
	if _, src, err := a.Do(context.Background(), key, "readonly", buildArtifact("readonly", nil)); err != nil || src != SourceBuild {
		t.Fatalf("second Do: src=%v err=%v", src, err)
	}
}

func TestLeaseInfraDownDegradesToUncoordinatedBuild(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	defer fault.Enable(fault.NewPlan(fault.Rule{Site: SiteLeaseAcquire, Kind: fault.Error}))()

	var calls atomic.Int64
	_, src, err := a.Do(context.Background(), ckpt.Key("replica", "noleases"), "noleases", buildArtifact("noleases", &calls))
	if err != nil || src != SourceBuildUnleased {
		t.Fatalf("Do: src=%v err=%v", src, err)
	}
	deg := a.Degraded()
	if len(deg) != 1 || deg[0][:6] != "lease:" {
		t.Fatalf("Degraded() = %v, want one lease reason", deg)
	}
}

func TestDegradationClearsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	off := fault.Enable(fault.NewPlan(fault.Rule{Site: SiteLeaseAcquire, Hit: 1, Kind: fault.Error}))
	if _, src, _ := a.Do(context.Background(), ckpt.Key("replica", "dip1"), "dip1", buildArtifact("dip1", nil)); src != SourceBuildUnleased {
		t.Fatalf("faulted Do src = %v", src)
	}
	off()
	if len(a.Degraded()) != 1 {
		t.Fatalf("Degraded() = %v, want the lease dip recorded", a.Degraded())
	}
	if _, src, _ := a.Do(context.Background(), ckpt.Key("replica", "dip2"), "dip2", buildArtifact("dip2", nil)); src != SourceBuild {
		t.Fatalf("recovered Do src = %v", src)
	}
	if deg := a.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() after recovery = %v, want empty", deg)
	}
}

// TestChaosKilledLeaderConverges is the acceptance chaos run: three
// replicas, several keys in flight, the leader of one key killed
// mid-build by a chaos rule. The fleet must converge to exactly one
// effective build per key, at least one lease takeover, zero duplicate
// store writes, and byte-identical artifacts everywhere.
func TestChaosKilledLeaderConverges(t *testing.T) {
	dir := t.TempDir()
	reps := []*Coordinator{
		testCoordinator(t, dir, "r0"),
		testCoordinator(t, dir, "r1"),
		testCoordinator(t, dir, "r2"),
	}
	// The chaos rule: the first heartbeat renewal in the run fails,
	// killing that builder's lease while its build hangs.
	defer fault.Enable(fault.NewPlan(fault.Rule{Site: SiteLeaseRenew, Hit: 1, Kind: fault.Error}))()

	keys := make([]string, 4)
	for i := range keys {
		keys[i] = ckpt.Key("chaos", fmt.Sprintf("k%d", i))
	}
	victim := keys[0]

	// The victim key's first builder hangs until killed; every other
	// build (and the victim's rebuild) completes normally.
	var firstVictimBuild atomic.Bool
	building := make(chan struct{})
	actx, kill := context.WithCancel(context.Background())
	defer kill()
	buildFor := func(key string, calls *atomic.Int64) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			if key == victim && firstVictimBuild.CompareAndSwap(false, true) {
				close(building)
				<-actx.Done()
				return nil, actx.Err()
			}
			calls.Add(1)
			return &artifact{Name: key[:8], Vals: []float64{float64(len(key))}}, nil
		}
	}

	var effective atomic.Int64
	var wg sync.WaitGroup
	results := make(map[string][]string) // key -> payloads observed
	var rmu sync.Mutex
	do := func(key string, r int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if key == victim && r == 0 {
				ctx = actx // the doomed leader's request dies with it
			}
			v, _, err := reps[r].Do(ctx, key, key[:8], buildFor(key, &effective))
			if err != nil {
				if key == victim {
					return // the killed leader's own request may fail
				}
				t.Errorf("Do(%s) on r%d: %v", key[:8], r, err)
				return
			}
			rmu.Lock()
			results[key] = append(results[key], string(v))
			rmu.Unlock()
		}()
	}
	for _, key := range keys {
		if key != victim {
			for r := range reps {
				do(key, r)
			}
			continue
		}
		// r0 must be the victim's doomed leader: start it alone and let
		// it claim the key before its siblings ask.
		do(key, 0)
		<-building
		for r := 1; r < len(reps); r++ {
			do(key, r)
		}
		// Reap the doomed leader only after its stale lease has been
		// taken over — a killed process never runs its release path, so
		// cancelling earlier would let the deferred release fire while
		// the lease is still owned, which is a graceful shutdown, not a
		// kill.
		go func() {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				var n int64
				for _, r := range reps {
					n += counter(r, "replica.lease.takeover")
				}
				if n >= 1 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			kill()
		}()
	}
	wg.Wait()

	if n := effective.Load(); n != int64(len(keys)) {
		t.Fatalf("effective builds = %d, want exactly %d (one per key)", n, len(keys))
	}
	var takeovers, dups int64
	for _, r := range reps {
		takeovers += counter(r, "replica.lease.takeover")
		dups += counter(r, "replica.build.duplicate")
	}
	if takeovers < 1 {
		t.Fatalf("replica.lease.takeover = %d, want >= 1", takeovers)
	}
	if dups != 0 {
		t.Fatalf("replica.build.duplicate = %d, want 0", dups)
	}
	for _, key := range keys {
		rmu.Lock()
		got := results[key]
		rmu.Unlock()
		wantN := len(reps)
		if key == victim {
			wantN = len(reps) - 1 // the killed leader returned an error
		}
		if len(got) < wantN {
			t.Fatalf("key %s: %d results, want >= %d", key[:8], len(got), wantN)
		}
		// Byte identity with a clean serial build of the same value.
		want, _ := json.Marshal(&artifact{Name: key[:8], Vals: []float64{float64(len(key))}})
		for i, p := range got {
			if p != string(want) {
				t.Fatalf("key %s result[%d] = %q, want %q", key[:8], i, p, want)
			}
		}
	}
	// Every replica can now serve every key's identical bytes locally.
	for _, key := range keys {
		want, _ := json.Marshal(&artifact{Name: key[:8], Vals: []float64{float64(len(key))}})
		for i, r := range reps {
			got, ok := r.ServeLocal(key)
			if !ok || string(got) != string(want) {
				t.Fatalf("r%d.ServeLocal(%s): ok=%v got=%q want=%q", i, key[:8], ok, got, want)
			}
		}
	}
}
