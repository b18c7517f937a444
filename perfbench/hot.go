package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serve-hot settings. The traced run's open-loop rates are fixed at
// about a quarter and three quarters of the mix's closed-loop capacity
// with two connections on a 2-core host (about 3.3k req/s); the
// ladder's limit is on due-time p99.
const (
	conns         = 2
	setupLaunches = 3
	hotRevalShare = 0.2 // share of the mix that revalidates with If-None-Match
	hotLowRate    = 800.0
	hotHighRate   = 2400.0
	hotLimitMS    = 25.0
	hotStep       = 1500 * time.Millisecond
)

var hotLadder = []float64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000}

// baseScenario is the seed of both daemons' base scenario. It is
// fixed, so set-up (which prewarms it) does the same work on every
// run; the workload seed drives the requests.
const baseScenario = 1

// hotConfig is serve-hot's base scenario: quick scale.
func hotConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = baseScenario
	return cfg
}

func hotDaemonArgs() []string {
	return []string{"-scale", "quick", "-seed", strconv.Itoa(baseScenario)}
}

// hotReq is one entry of the hot mix.
type hotReq struct {
	kind string // json, md, csv, dat, report, or 304 for a revalidation
	path string // relative to /v1
	want []byte // expected body; empty for a 304
}

// hotPlan builds the mix from every distinct variant the daemon serves
// for the base scenario, plus revalidations of a seeded choice of them
// making up hotRevalShare of the mix, in a seeded order. The seed moves
// which variants are revalidated and the order, never the counts.
func hotPlan(seed uint64, distinct []rendered) []hotReq {
	s := rng.New(seed).Child("perfbench.hot")
	plan := make([]hotReq, 0, len(distinct)*2)
	for _, r := range distinct {
		plan = append(plan, hotReq{kind: r.kind, path: r.path, want: r.body})
	}
	nReval := int(float64(len(distinct))*hotRevalShare/(1-hotRevalShare) + 0.5)
	perm := s.Perm(len(distinct))
	for _, i := range perm[:nReval] {
		plan = append(plan, hotReq{kind: "304", path: distinct[i].path})
	}
	s.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// hotTarget sends plan entries to a daemon and checks each response.
type hotTarget struct {
	b      *bench
	client *http.Client
	base   string
	plan   []hotReq
	etags  map[string]string // path -> ETag, filled by warm
}

// check compares one response with the oracle: the batch path's bytes
// for a 200, and an empty body for a 304.
func (h *hotTarget) check(rq hotReq, status int, body []byte, err error) bool {
	switch {
	case err != nil:
		h.b.problem("%s: %v", rq.path, err)
	case rq.kind == "304" && status != http.StatusNotModified:
		h.b.problem("%s revalidation: status %d, want 304", rq.path, status)
	case rq.kind == "304" && len(body) != 0:
		h.b.problem("%s: 304 carried a %d-byte body", rq.path, len(body))
	case rq.kind != "304" && status != http.StatusOK:
		h.b.problem("%s: status %d", rq.path, status)
	case rq.kind != "304" && !bytes.Equal(body, rq.want):
		h.b.problem("%s: served %d bytes differ from the batch path's %d", rq.path, len(body), len(rq.want))
	default:
		return true
	}
	return false
}

func (h *hotTarget) fire(i int) bool {
	rq := h.plan[i%len(h.plan)]
	etag := ""
	if rq.kind == "304" {
		etag = h.etags[rq.path]
	}
	status, body, _, err := getBody(h.client, h.base+"/v1"+rq.path, etag)
	ok := h.check(rq, status, body, err)
	h.b.op(ok)
	return ok
}

// warm fetches every distinct variant once, checking it and keeping
// its ETag for the revalidations.
func (h *hotTarget) warm() {
	h.etags = map[string]string{}
	for _, rq := range h.plan {
		if rq.kind == "304" {
			continue
		}
		status, body, etag, err := getBody(h.client, h.base+"/v1"+rq.path, "")
		h.b.op(h.check(rq, status, body, err))
		h.etags[rq.path] = etag
	}
}

// hotExpected renders the base scenario through the batch path.
func hotExpected(cfg core.Config) ([]*core.Result, []rendered, error) {
	results, err := core.RunAll(core.NewContext(cfg))
	if err != nil {
		return nil, nil, err
	}
	rs, err := renderAll(nil, cfg, results)
	return results, rs, err
}

// eachLaunch starts the daemon setupLaunches times, runs serve against
// each launch for its share of the run, and stops it. It returns every
// launch's setup time and peak RSS, so both are medians of several
// set-ups rather than one.
func eachLaunch(b *bench, args func(i int) []string, serve func(i int, d *daemon) error) (setups, rss sample, err error) {
	client := newClient(conns)
	for i := 0; i < setupLaunches; i++ {
		d, err := startDaemon(filepath.Join(b.bin, "reprod"), args(i), filepath.Join(b.work, fmt.Sprintf("reprod-%d.log", i)), client)
		b.op(err == nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.setup.Seconds())
		err = serve(i, d)
		code, mb, stopErr := d.stop()
		if err != nil {
			return nil, nil, err
		}
		if stopErr != nil || code != 0 {
			return nil, nil, fmt.Errorf("reprod did not drain cleanly (exit %d): %v", code, stopErr)
		}
		rss = append(rss, mb)
	}
	return setups, rss, nil
}

// runHot measures serve-hot on setupLaunches daemons in turn, each
// serving closed-loop passes over the mix on two connections for a
// third of the run. wall_s is the median pass and cpu_s the daemon's
// CPU time per pass; p50 and p90 are of single requests.
//
// Latency at fixed open-loop rates is measured in the traced run
// (gen.*), not here: on a 2-vCPU VM an open loop at a quarter of
// capacity reads a 1.0 ms median against 0.3 ms in the closed loop,
// the difference being idle-vCPU wake-up and timer overshoot, and its
// p90 spread 0.27 of its median across ten runs, wider than any bound
// a later change could be held to.
func runHot(b *bench) error {
	cfg := hotConfig()
	results, distinct, err := hotExpected(cfg)
	if err != nil {
		return err
	}
	plan := hotPlan(b.seed, distinct)
	if b.trace {
		return traceHot(b, cfg, results, plan)
	}
	var passes, lat sample
	var cpu time.Duration
	setups, rss, err := eachLaunch(b, func(int) []string { return hotDaemonArgs() }, func(_ int, d *daemon) error {
		h := &hotTarget{b: b, client: newClient(conns), base: d.base, plan: plan}
		h.warm()
		c0, err := d.cpuTime()
		if err != nil {
			return err
		}
		for t0 := time.Now(); len(passes) < 3 || time.Since(t0) < b.seconds/setupLaunches; {
			shots, wall := closedLoop(len(plan), conns, h.fire)
			passes = append(passes, wall.Seconds())
			l, _ := latencies(shots)
			lat = append(lat, l...)
		}
		c1, err := d.cpuTime()
		cpu += c1 - c0
		return err
	})
	if err != nil {
		return err
	}
	b.set("setup_s", setups.median(), fmt.Sprintf("median of n=%d launches to healthz+prewarm", len(setups)))
	b.set("wall_s", passes.median(), fmt.Sprintf("closed-loop pass over %d requests, %d conns, n=%d passes", len(plan), conns, len(passes)))
	b.set("cpu_s", cpu.Seconds()/float64(len(passes)), fmt.Sprintf("daemon user+system CPU per pass: %.2fs over n=%d passes", cpu.Seconds(), len(passes)))
	b.set("p50_ms", lat.q(0.5), fmt.Sprintf("closed loop, %d conns, n=%d requests", conns, len(lat)))
	b.set("p90_ms", lat.q(0.9), fmt.Sprintf("closed loop, %d conns, n=%d requests; p99 %.3f ms", conns, len(lat), lat.q(0.99)))
	b.set("peak_rss_mb", rss.median(), fmt.Sprintf("median daemon max RSS of n=%d launches", len(rss)))
	return nil
}

// traceHot is serve-hot's traced pass: every mix request through the
// serving handler in process (a span each), every variant through the
// renderers (a span each), then the daemon under the low rate and the
// rate ladder, with gate metrics scraped from /metrics.
func traceHot(b *bench, cfg core.Config, results []*core.Result, plan []hotReq) error {
	srv := serve.New(serve.Config{Base: cfg})
	if _, err := srv.Prewarm(context.Background()); err != nil {
		return err
	}
	handler := srv.Handler()
	etags := map[string]string{}
	serveOnce := func(rq hotReq) (int, []byte) {
		req := httptest.NewRequest(http.MethodGet, "/v1"+rq.path, nil)
		if rq.kind == "304" {
			req.Header.Set("If-None-Match", etags[rq.path])
		}
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if e := w.Header().Get("ETag"); e != "" && rq.kind != "304" {
			etags[rq.path] = e
		}
		return w.Code, w.Body.Bytes()
	}
	h := &hotTarget{b: b, plan: plan}
	for _, rq := range plan { // untimed: fills the ETags
		if rq.kind != "304" {
			serveOnce(rq)
		}
	}
	start := time.Now()
	for _, rq := range plan {
		serveOnce(rq)
	}
	untraced := time.Since(start)
	t := &tracer{}
	var handlerUS sample
	for _, rq := range plan {
		var status int
		var body []byte
		d := t.do("serve", "serve.handler."+rq.kind, func() { status, body = serveOnce(rq) })
		handlerUS = append(handlerUS, us(d))
		b.op(h.check(rq, status, body, nil))
	}
	traced := t.total("serve.handler.*")
	rs, err := renderAll(t, cfg, results)
	if err != nil {
		return err
	}
	for _, k := range handlerKinds {
		n := t.count("serve.handler." + k)
		b.set("serve.handler_us."+k, ratio(us(t.total("serve.handler."+k)), float64(n)), fmt.Sprintf("mean of n=%d in-process requests", n))
	}
	setRenderMetrics(b, t, rs)
	setShares(b, t)
	b.set("obs.trace_overhead_ratio", ratio(traced.Seconds(), untraced.Seconds()),
		fmt.Sprintf("base: untraced in-process pass %.3f ms over %d requests", ms(untraced), len(plan)))

	client := newClient(conns)
	d, err := startDaemon(filepath.Join(b.bin, "reprod"), hotDaemonArgs(), filepath.Join(b.work, "reprod.log"), client)
	b.op(err == nil)
	if err != nil {
		return err
	}
	defer d.stop()
	ht := &hotTarget{b: b, client: client, base: d.base, plan: plan}
	ht.warm()
	for path, e := range ht.etags {
		if etags[path] != e {
			b.problem("%s: daemon ETag %s, in-process %s", path, e, etags[path])
		}
	}
	low := openLoop(int(hotLowRate*(b.seconds/4).Seconds()), hotLowRate, conns, ht.fire)
	lowLat, _ := latencies(low)
	b.set("gen.low_p50_ms", lowLat.q(0.5), fmt.Sprintf("due-time, open loop %.0f req/s, n=%d", hotLowRate, len(lowLat)))
	b.set("gen.low_p99_ms", lowLat.q(0.99), fmt.Sprintf("due-time, open loop %.0f req/s, n=%d", hotLowRate, len(lowLat)))
	var lateMS, svcUS sample
	for _, s := range low {
		lateMS = append(lateMS, ms(s.late))
		svcUS = append(svcUS, us(s.svc))
	}
	b.set("gen.late_p99_ms", lateMS.q(0.99), fmt.Sprintf("send - due at %.0f req/s, n=%d", hotLowRate, len(lateMS)))
	b.set("serve.net_us", svcUS.median()-handlerUS.median(),
		fmt.Sprintf("base: client median %.1f us (n=%d) at %.0f req/s - in-process handler median %.1f us (n=%d)",
			svcUS.median(), len(svcUS), hotLowRate, handlerUS.median(), len(handlerUS)))
	high, _ := latencies(openLoop(int(hotHighRate*(b.seconds/4).Seconds()), hotHighRate, conns, ht.fire))
	b.set("gen.high_p50_ms", high.q(0.5), fmt.Sprintf("due-time, open loop %.0f req/s, n=%d", hotHighRate, len(high)))
	b.set("gen.high_p99_ms", high.q(0.99), fmt.Sprintf("due-time, open loop %.0f req/s, n=%d", hotHighRate, len(high)))
	best, steps := ladder(hotLadder, hotStep, conns, hotLimitMS, ht.fire)
	b.set("gen.max_rps", best, fmt.Sprintf("highest ladder rate with due-time p99 <= %.0f ms and no growing backlog, %d steps of %v", hotLimitMS, len(steps), hotStep))
	if err := scrapeGate(b, client, d.base); err != nil {
		return err
	}
	if code, _, err := d.stop(); err != nil || code != 0 {
		return fmt.Errorf("reprod did not drain cleanly (exit %d): %v", code, err)
	}
	return writeSpans(filepath.Join(b.work, "spans.jsonl"), t)
}

// scrapeGate reads the admission gate's wait and rejections from the
// daemon's /metrics.
func scrapeGate(b *bench, client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dump, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	sum, _ := dump.Value("serve_gate_wait_seconds_sum")
	n, _ := dump.Value("serve_gate_wait_seconds_count")
	rej, _ := dump.Value("serve_gate_rejected")
	b.set("serve.gate_wait_us", ratio(sum*1e6, n), fmt.Sprintf("mean over n=%.0f admissions that queued", n))
	b.set("serve.gate.rejected", rej, "")
	return nil
}
