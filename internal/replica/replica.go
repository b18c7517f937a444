// Package replica is the one layer that turns a cold artifact request
// into checkpoint bytes: shared-store lookup, lease-based distributed
// singleflight, peer cache fill and the build itself, so a key is built
// once across the whole fleet no matter which replica the requests land
// on — and keeps being served when the replica that was building it
// dies mid-build. A single daemon is the same coordinator with zero
// peers. The in-process tier of finished bytes lives in the daemon
// (internal/serve), in front of this package.
//
// Protocol: the first replica to claim a key atomically creates
// `<key>.lease` in the shared checkpoint directory (temp file hard-linked
// into place: owner ID, TTL deadline) and builds; its heartbeat renews the deadline
// while the build runs. Every other replica waits: polling the shared
// store for the finished artifact, asking sibling replicas over HTTP
// (GET /v1/cache/{key}, each attempt deadline-bounded, rounds spaced by
// jittered exponential backoff, attempts bounded). A waiter that finds
// the lease expired — the builder crashed, or its heartbeat was severed
// — deletes it and takes the key over, so no key can be orphaned.
//
// Every failure path degrades instead of failing the request: lease
// directory unreachable → build locally without coordination; peers
// unreachable → build locally; shared store unwritable → serve from the
// local tier and report "degraded" through Degraded() (the daemon's
// /healthz stays 200). Chaos sites (replica.lease.acquire/renew/
// release, replica.peer.fetch, plus ckpt.write in the store) let the
// fault-injection suite prove each of those degradations, and the lease
// takeover, deterministically.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Chaos sites injected by the fault plan. SiteCkptWrite lives in
// internal/ckpt but is listed here so chaos drivers arm the whole
// replica failure surface from one list.
const (
	SiteLeaseAcquire = "replica.lease.acquire"
	SiteLeaseRenew   = "replica.lease.renew"
	SiteLeaseRelease = "replica.lease.release"
	SitePeerFetch    = "replica.peer.fetch"
	SiteCkptWrite    = "ckpt.write"
)

// ChaosSites returns every fault site in the replica failure surface,
// in a stable order — the site list chaos-enabled daemons arm.
func ChaosSites() []string {
	return []string{SiteLeaseAcquire, SiteLeaseRenew, SiteLeaseRelease, SitePeerFetch, SiteCkptWrite}
}

// Source reports which tier satisfied a Do call.
type Source int

const (
	SourceNone          Source = iota
	SourceStore                // the shared checkpoint store
	SourcePeer                 // HTTP cache fill from a sibling replica
	SourceBuild                // built here under a held lease
	SourceBuildUnleased        // built here without a lease: no store, or the lease directory failed
)

func (s Source) String() string {
	switch s {
	case SourceStore:
		return "store"
	case SourcePeer:
		return "peer"
	case SourceBuild:
		return "build"
	case SourceBuildUnleased:
		return "build-unleased"
	default:
		return "none"
	}
}

// Config assembles a Coordinator.
type Config struct {
	// ID names this replica in lease files, temp-file suffixes and
	// /healthz. Empty picks host:pid:n, unique to this coordinator, so
	// daemons sharing a checkpoint directory never share a lease owner.
	ID string

	// Store is the shared checkpoint cache; leases live in its
	// directory. A disabled store leaves only peer fill + local builds
	// (no cross-replica singleflight: there is nowhere to put a lease).
	Store *ckpt.Store

	// Peers are sibling base addresses ("host:port" or full URLs) asked
	// for cache fills. The replica's own address must not be listed.
	Peers []string

	// TTL is the lease lifetime between heartbeats (default 5s). A
	// builder that misses renewals for a full TTL is presumed dead.
	TTL time.Duration

	// Heartbeat is the renewal period (default TTL/3).
	Heartbeat time.Duration

	// Poll is how often a waiter re-checks the store and lease state
	// (default TTL/10, clamped to [10ms, 500ms]).
	Poll time.Duration

	// FetchTimeout bounds one peer cache-fill attempt (default 2s).
	FetchTimeout time.Duration

	// Retries bounds peer-fill backoff rounds (default 3).
	Retries int

	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between peer rounds (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Rec receives replica.* metrics and, for traced requests, the
	// lease-wait and peer-fill spans. nil allocates a fresh recorder.
	Rec *obs.Recorder

	// Client overrides the peer HTTP client (tests inject transports).
	Client *http.Client
}

// Coordinator is one replica's view of the fleet-wide cache. Safe for
// concurrent use by any number of requests.
type Coordinator struct {
	id     string
	store  *ckpt.Store
	leases *leaseDir // nil when the store is disabled
	peerc  *peerSet
	rec    *obs.Recorder

	heartbeatEvery time.Duration
	poll           time.Duration
	retries        int

	dmu      sync.Mutex
	degraded map[string]string
	degGauge *obs.Gauge

	peerMet peerMetrics

	storeHit      *obs.Counter
	peerHit       *obs.Counter
	buildDone     *obs.Counter
	buildUnleased *obs.Counter
	buildDup      *obs.Counter
	served        *obs.Counter
	leaseAcquired *obs.Counter
	leaseTakeover *obs.Counter
	leaseRenewed  *obs.Counter
	leaseLost     *obs.Counter
	leaseErr      *obs.Counter
	leaseWaits    *obs.Counter
}

// peerMetrics groups the counters the peerSet reports into.
type peerMetrics struct {
	attempts *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	errs     *obs.Counter
}

// unnamed numbers the coordinators made without an ID.
var unnamed atomic.Uint64

// New assembles a Coordinator from cfg, applying defaults.
func New(cfg Config) *Coordinator {
	rec := cfg.Rec
	if rec == nil {
		rec = obs.NewRecorder()
	}
	reg := rec.Registry()
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = ttl / 3
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = ttl / 10
		if poll < 10*time.Millisecond {
			poll = 10 * time.Millisecond
		}
		if poll > 500*time.Millisecond {
			poll = 500 * time.Millisecond
		}
	}
	fetchTimeout := cfg.FetchTimeout
	if fetchTimeout <= 0 {
		fetchTimeout = 2 * time.Second
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = 3
	}
	base := cfg.BackoffBase
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := cfg.BackoffMax
	if max <= 0 {
		max = time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p == "" {
			continue
		}
		if len(p) < 7 || (p[:7] != "http://" && (len(p) < 8 || p[:8] != "https://")) {
			p = "http://" + p
		}
		peers = append(peers, p)
	}
	id := cfg.ID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "localhost"
		}
		id = fmt.Sprintf("%s:%d:%d", host, os.Getpid(), unnamed.Add(1))
	}
	c := &Coordinator{
		id:    id,
		store: cfg.Store,
		rec:   rec,
		peerc: &peerSet{
			peers:        peers,
			client:       client,
			fetchTimeout: fetchTimeout,
			retries:      retries,
			backoffBase:  base,
			backoffMax:   max,
			jitter:       rng.New(ckptSeed(id)).Child("replica.backoff"),
		},
		heartbeatEvery: hb,
		poll:           poll,
		retries:        retries,
		degraded:       make(map[string]string),
		degGauge:       reg.Gauge("replica.degraded"),
		peerMet: peerMetrics{
			attempts: reg.Counter("replica.peer.attempt"),
			hits:     reg.Counter("replica.peer.hit"),
			misses:   reg.Counter("replica.peer.miss"),
			errs:     reg.Counter("replica.peer.err"),
		},
		storeHit:      reg.Counter("replica.store.hit"),
		peerHit:       reg.Counter("replica.peer.fill"),
		buildDone:     reg.Counter("replica.build.done"),
		buildUnleased: reg.Counter("replica.build.unleased"),
		buildDup:      reg.Counter("replica.build.duplicate"),
		served:        reg.Counter("replica.cache.served"),
		leaseAcquired: reg.Counter("replica.lease.acquired"),
		leaseTakeover: reg.Counter("replica.lease.takeover"),
		leaseRenewed:  reg.Counter("replica.lease.renewed"),
		leaseLost:     reg.Counter("replica.lease.lost"),
		leaseErr:      reg.Counter("replica.lease.err"),
		leaseWaits:    reg.Counter("replica.lease.wait"),
	}
	if cfg.Store.Enabled() {
		c.leases = &leaseDir{dir: cfg.Store.Dir(), owner: id, ttl: ttl, now: time.Now}
		cfg.Store.SetWriter(id)
	}
	return c
}

// ckptSeed derives a stable jitter seed from the replica ID, so two
// replicas never share a backoff schedule but each replays its own.
func ckptSeed(id string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// ID returns the replica's name.
func (c *Coordinator) ID() string { return c.id }

// Peers returns the configured sibling base URLs.
func (c *Coordinator) Peers() []string { return c.peerc.peers }

// Degraded returns the active degradation reasons, sorted; empty means
// every subsystem the coordinator depends on is answering.
func (c *Coordinator) Degraded() []string {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	out := make([]string, 0, len(c.degraded))
	for k, msg := range c.degraded {
		out = append(out, k+": "+msg)
	}
	sort.Strings(out)
	return out
}

func (c *Coordinator) setDegraded(subsystem string, err error) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.degraded[subsystem] = err.Error()
	c.degGauge.Set(1)
}

func (c *Coordinator) clearDegraded(subsystem string) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if _, ok := c.degraded[subsystem]; !ok {
		return
	}
	delete(c.degraded, subsystem)
	if len(c.degraded) == 0 {
		c.degGauge.Set(0)
	}
}

// ServeLocal answers a sibling's cache-fill request from the shared
// store — never by building and never by asking peers, so fills cannot
// recurse across the fleet. The daemon tries its in-process tier
// first; replica.cache.served counts the fills answered here. The
// returned payload is the exact checkpoint encoding.
func (c *Coordinator) ServeLocal(key string) ([]byte, bool) {
	payload, ok, _ := c.store.LoadRaw(key)
	if ok {
		c.served.Add(1)
	}
	return payload, ok
}

// Do returns the checkpoint payload for the content-addressed key:
// from the shared store, from a peer, or by building under a
// distributed lease and publishing the JSON encoding of build's value.
// name labels the ckpt:load:<name> and ckpt:save:<name> spans of traced
// requests. ctx bounds the whole call (waiting included) and is handed
// to build.
func (c *Coordinator) Do(ctx context.Context, key, name string, build func(context.Context) (any, error)) ([]byte, Source, error) {
	if payload, ok := c.loadStore(ctx, key, name); ok {
		return payload, SourceStore, nil
	}
	if c.leases == nil {
		// No shared directory, no distributed singleflight: probe the
		// peers once (with retries for transient failures), then build.
		if payload, ok := c.peerFill(ctx, key); ok {
			return payload, SourcePeer, nil
		}
		return c.buildLocal(ctx, key, name, build)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, SourceNone, context.Cause(ctx)
		}
		held, cur, takeover, err := c.leases.tryAcquire(key)
		if err != nil {
			// Lease infrastructure down (unwritable dir, injected
			// fault): correctness over coordination — build here,
			// accept the duplicate work, flag the degradation.
			c.leaseErr.Add(1)
			c.setDegraded("lease", err)
			return c.buildLocal(ctx, key, name, build)
		}
		c.clearDegraded("lease")
		if takeover {
			c.leaseTakeover.Add(1)
		}
		if held {
			c.leaseAcquired.Add(1)
			// Another replica may have published and released between
			// the first store probe and this claim.
			if payload, ok := c.loadStore(ctx, key, ""); ok {
				c.leases.release(key)
				return payload, SourceStore, nil
			}
			return c.buildLeased(ctx, key, name, build)
		}
		payload, src, done, err := c.waitForHolder(ctx, key, cur)
		if done {
			return payload, src, err
		}
		// The holder released without publishing a result, or its lease
		// expired: loop and race for the claim.
	}
}

// loadStore reads key's validated payload from the shared store. A
// named read records a ckpt:load:<name> span on traced requests; the
// re-checks and the waiter's polling pass no name.
func (c *Coordinator) loadStore(ctx context.Context, key, name string) ([]byte, bool) {
	if !c.store.Enabled() {
		return nil, false
	}
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced && name != "" {
		sp, _ = c.rec.StartSpan(ctx, "ckpt:load:"+name, obs.CatServe)
	}
	payload, ok, _ := c.store.LoadRaw(key)
	sp.End()
	if ok {
		c.storeHit.Add(1)
	}
	return payload, ok
}

// buildLeased runs build while heartbeating the held lease, publishes
// the result, and releases.
func (c *Coordinator) buildLeased(ctx context.Context, key, name string, build func(context.Context) (any, error)) ([]byte, Source, error) {
	stop := c.startHeartbeat(ctx, key)
	v, err := build(ctx)
	stop()
	var payload []byte
	if err == nil {
		payload, err = c.publish(ctx, key, name, v)
	}
	// On failure the release gives the next claimant a clean shot
	// instead of making it wait out the TTL.
	c.leases.release(key)
	if err != nil {
		return nil, SourceNone, err
	}
	return payload, SourceBuild, nil
}

// buildLocal is the uncoordinated build: no shared store to lease in,
// or the lease directory failed.
func (c *Coordinator) buildLocal(ctx context.Context, key, name string, build func(context.Context) (any, error)) ([]byte, Source, error) {
	v, err := build(ctx)
	if err != nil {
		return nil, SourceNone, err
	}
	payload, err := c.publish(ctx, key, name, v)
	if err != nil {
		return nil, SourceNone, err
	}
	c.buildUnleased.Add(1)
	return payload, SourceBuildUnleased, nil
}

// publish encodes a finished value and, best-effort, writes it to the
// shared store. A store write failure marks the coordinator degraded —
// the daemon still serves the returned bytes from memory; a duplicate
// store file (another replica finished first) counts the redundant
// work. A value that cannot be encoded (NaN metrics) is an error: it
// has no bytes to serve.
func (c *Coordinator) publish(ctx context.Context, key, name string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("replica: encode %s: %w", name, err)
	}
	c.buildDone.Add(1)
	if !c.store.Enabled() {
		return payload, nil
	}
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		sp, _ = c.rec.StartSpan(ctx, "ckpt:save:"+name, obs.CatServe)
	}
	dup, err := c.store.SaveRaw(key, payload)
	sp.End()
	switch {
	case err != nil:
		c.setDegraded("store", err)
	case dup:
		c.buildDup.Add(1)
		c.clearDegraded("store")
	default:
		c.clearDegraded("store")
	}
	return payload, nil
}

// startHeartbeat renews key's lease every heartbeat period until
// stopped. A failed renewal ends the heartbeat: if the lease was lost
// the build has already been taken over (finishing it stays harmless —
// identical bytes); if the directory failed the lease will expire and
// some replica, possibly this one, will reclaim the key.
func (c *Coordinator) startHeartbeat(ctx context.Context, key string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := int64(1)
		t := time.NewTicker(c.heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				var err error
				seq, err = c.leases.renew(key, seq)
				if err != nil {
					if errors.Is(err, ErrLeaseLost) {
						c.leaseLost.Add(1)
					} else {
						c.leaseErr.Add(1)
					}
					return
				}
				c.leaseRenewed.Add(1)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// waitForHolder parks this replica while another builds key: polling
// the shared store for the published result, running bounded peer-fill
// rounds with jittered backoff in between, and watching the lease.
// done=false means the lease vanished or expired and the caller should
// race to claim the key.
func (c *Coordinator) waitForHolder(ctx context.Context, key string, cur leaseRecord) (payload []byte, src Source, done bool, err error) {
	c.leaseWaits.Add(1)
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		sp, ctx = c.rec.StartSpan(ctx, "replica:wait:"+shortKey(key), obs.CatReplica)
		defer sp.End()
	}
	round := 0
	nextPeer := time.Now() // first peer round runs immediately
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		if payload, ok := c.loadStore(ctx, key, ""); ok {
			return payload, SourceStore, true, nil
		}
		rec, ok, rerr := c.leases.read(key)
		now := time.Now()
		switch {
		case rerr != nil:
			// Unreadable lease directory: let the outer loop hit the
			// acquire path, which degrades to a local build.
			return nil, SourceNone, false, nil
		case !ok, rec.expired(now):
			return nil, SourceNone, false, nil
		case rec.Owner != cur.Owner:
			// A takeover happened under us; keep waiting on the new
			// holder with a fresh peer budget.
			cur, round = rec, 0
		}
		if round < c.retries && !now.Before(nextPeer) {
			res := c.peerc.round(ctx, key, &c.peerMet)
			if res.ok {
				c.peerHit.Add(1)
				return res.payload, SourcePeer, true, nil
			}
			round++
			nextPeer = time.Now().Add(c.peerc.backoff(round))
		}
		select {
		case <-ctx.Done():
			return nil, SourceNone, true, context.Cause(ctx)
		case <-ticker.C:
		}
	}
}

// peerFill is the storeless cache-fill: bounded rounds over all peers
// with jittered backoff, stopping early when every peer definitively
// misses (no shared store means a miss everywhere is final — build).
func (c *Coordinator) peerFill(ctx context.Context, key string) ([]byte, bool) {
	if len(c.peerc.peers) == 0 {
		return nil, false
	}
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		sp, ctx = c.rec.StartSpan(ctx, "replica:peer:"+shortKey(key), obs.CatReplica)
		defer sp.End()
	}
	for round := 1; round <= c.retries; round++ {
		res := c.peerc.round(ctx, key, &c.peerMet)
		if res.ok {
			c.peerHit.Add(1)
			return res.payload, true
		}
		if !res.transient || ctx.Err() != nil {
			return nil, false
		}
		if round < c.retries {
			sleep(ctx, c.peerc.backoff(round))
		}
	}
	return nil, false
}

// shortKey abbreviates a 64-hex content address for span names.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
