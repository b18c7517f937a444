package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// serve-cold settings: a tiny scenario per fresh seed, and every
// coldRevisitEvery-th scenario a seed last used at least coldRevisitGap
// scenarios earlier, so it has left the daemon's 8-entry context LRU
// and its artifacts come from checkpoints.
const (
	coldMachines     = 4
	coldDays         = 1
	coldWorkloadDays = 1
	coldRevisitEvery = 4
	coldRevisitGap   = 12
	coldTraceFresh   = 3
	coldVerify       = 3    // scenarios per launch checked against the batch path
	coldPlanLen      = 4000 // more scenarios than any run gets through
)

func coldConfig(seed uint64) core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.Machines = coldMachines
	cfg.SimHorizon = coldDays * 86400
	cfg.WorkloadHorizon = coldWorkloadDays * 86400
	return cfg
}

func coldDaemonArgs() []string {
	return []string{"-scale", "quick", "-seed", strconv.Itoa(baseScenario),
		"-machines", strconv.Itoa(coldMachines), "-sim-days", strconv.Itoa(coldDays),
		"-workload-days", strconv.Itoa(coldWorkloadDays)}
}

// coldScenario is one step of the cold plan.
type coldScenario struct {
	seed    uint64
	revisit bool
}

// coldPlan returns the first n scenarios for a workload seed: fresh
// seeds, except that every coldRevisitEvery-th scenario, once one is
// old enough, revisits a seed whose last use is at least coldRevisitGap
// scenarios back. The workload seed moves the scenario seeds and which
// old one is revisited, not the pattern.
func coldPlan(seed uint64, n int) []coldScenario {
	s := rng.New(seed).Child("perfbench.cold")
	used := map[uint64]bool{baseScenario: true}
	lastUse := map[uint64]int{}
	var plan []coldScenario
	for k := 0; k < n; k++ {
		if k%coldRevisitEvery == coldRevisitEvery-1 {
			var old []uint64
			for _, sc := range plan {
				if !sc.revisit && k-lastUse[sc.seed] >= coldRevisitGap {
					old = append(old, sc.seed)
				}
			}
			if len(old) > 0 {
				pick := old[s.IntN(len(old))]
				plan = append(plan, coldScenario{seed: pick, revisit: true})
				lastUse[pick] = k
				continue
			}
		}
		fresh := s.Uint64() >> 1
		for used[fresh] {
			fresh = s.Uint64() >> 1
		}
		used[fresh] = true
		lastUse[fresh] = k
		plan = append(plan, coldScenario{seed: fresh})
	}
	return plan
}

// coldBody identifies what was served for one (scenario, artifact).
type coldBody struct {
	seed uint64
	id   string
}

// coldRun drives the cold loop against one daemon and keeps what the
// oracle needs.
type coldRun struct {
	b      *bench
	client *http.Client
	base   string

	mu      sync.Mutex
	digests map[coldBody]string
	lat     sample   // ms, every request
	first   sample   // ms, the first request for each artifact of a scenario
	walls   sample   // s, per scenario
	order   []uint64 // scenario seeds in the order first served
	done    int
}

// scenario serves one scenario: one connection requests the 15
// artifacts in forward order, the other in reverse order, so both
// leaders and coalesced joiners occur. Its wall time is until both
// are done.
func (cr *coldRun) scenario(sc coldScenario) {
	start := time.Now()
	var sent [conns]map[string]time.Time
	var lat [conns]map[string]float64
	var wg sync.WaitGroup
	for dir := 0; dir < conns; dir++ {
		sent[dir], lat[dir] = map[string]time.Time{}, map[string]float64{}
		wg.Add(1)
		go func(dir int) {
			defer wg.Done()
			for i := range paperIDs {
				id := paperIDs[i]
				if dir == 1 {
					id = paperIDs[len(paperIDs)-1-i]
				}
				sent[dir][id], lat[dir][id] = cr.fetch(sc.seed, id)
			}
		}(dir)
	}
	wg.Wait()
	cr.mu.Lock()
	for _, id := range paperIDs {
		first := 0
		if sent[1][id].Before(sent[0][id]) {
			first = 1
		}
		cr.first = append(cr.first, lat[first][id])
	}
	cr.walls = append(cr.walls, time.Since(start).Seconds())
	if !sc.revisit {
		cr.order = append(cr.order, sc.seed)
	}
	cr.done++
	cr.mu.Unlock()
}

// fetch requests one artifact and checks it against every other body
// served for the same scenario and artifact (the other connection's,
// and the first visit's when this is a revisit).
func (cr *coldRun) fetch(seed uint64, id string) (time.Time, float64) {
	url := fmt.Sprintf("%s/v1/artifacts/%s?seed=%d", cr.base, id, seed)
	sent := time.Now()
	status, body, _, err := getBody(cr.client, url, "")
	d := time.Since(sent)
	ok := err == nil && status == http.StatusOK
	if !ok {
		cr.b.problem("%s: status %d, %v", url, status, err)
	}
	sum := digest(body)
	cr.mu.Lock()
	key := coldBody{seed, id}
	if prev, seen := cr.digests[key]; ok && seen && prev != sum {
		ok = false
		cr.b.problem("%s: body differs from an earlier response for the same scenario", url)
	} else if ok && !seen {
		cr.digests[key] = sum
	}
	l := ms(d)
	if !ok {
		l = math.Inf(1) // a failed request misses every limit
	}
	cr.lat = append(cr.lat, l)
	cr.mu.Unlock()
	cr.b.op(ok)
	return sent, l
}

// loop serves plan scenarios until budget is used.
func (cr *coldRun) loop(plan []coldScenario, budget time.Duration) {
	t0 := time.Now()
	for _, sc := range plan {
		if time.Since(t0) >= budget && cr.done >= 2*coldRevisitGap {
			return
		}
		cr.scenario(sc)
	}
}

// verify renders coldVerify of the scenarios served, spread evenly
// over the run, through the batch path (two at a time, after the
// daemon has stopped) and compares each served body with it. Every
// other body was already compared with the other connection's and,
// on a revisit, with the first visit's.
func (cr *coldRun) verify() error {
	var seeds []uint64
	step := max(1, len(cr.order)/coldVerify)
	for i := 0; i < len(cr.order); i += step {
		seeds = append(seeds, cr.order[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(seeds); i += conns {
				results, err := core.RunAll(core.NewContext(coldConfig(seeds[i])))
				if err != nil {
					errs[w] = err
					return
				}
				for _, r := range results {
					b, err := json.Marshal(r)
					if err != nil {
						errs[w] = err
						return
					}
					if got := cr.digests[coldBody{seeds[i], r.ID}]; got != digest(b) {
						cr.b.problem("seed %d %s: served body differs from the batch path", seeds[i], r.ID)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func newColdRun(b *bench, base string) *coldRun {
	return &coldRun{b: b, client: newClient(conns), base: base,
		digests: map[coldBody]string{}}
}

// runCold measures serve-cold on setupLaunches daemons in turn, each
// started with an empty checkpoint directory and serving its own
// scenarios for a third of the run. p50/p90 are over cold requests:
// for each artifact of a scenario, the one of the two requests sent
// first, which had to build it or load its checkpoint (the other is
// served from memory or joins the build, in a timing-dependent
// proportion). wall_s is per scenario, and cpu_s the daemon's CPU time
// per scenario.
func runCold(b *bench) error {
	if b.trace {
		return traceCold(b, coldPlan(b.seed, coldPlanLen))
	}
	var runs []*coldRun
	var cpu time.Duration
	args := func(i int) []string {
		return append(coldDaemonArgs(), "-checkpoint-dir", filepath.Join(b.work, fmt.Sprintf("ckpt-%d", i)))
	}
	setups, rss, err := eachLaunch(b, args, func(i int, d *daemon) error {
		cr := newColdRun(b, d.base)
		c0, err := d.cpuTime()
		if err != nil {
			return err
		}
		cr.loop(coldPlan(b.seed+uint64(i)<<32, coldPlanLen), b.seconds/setupLaunches)
		c1, err := d.cpuTime()
		cpu += c1 - c0
		runs = append(runs, cr)
		return err
	})
	if err != nil {
		return err
	}
	var lat, walls, first sample
	for _, cr := range runs {
		first = append(first, cr.first...)
		if err := cr.verify(); err != nil {
			return err
		}
		lat = append(lat, cr.lat...)
		walls = append(walls, cr.walls...)
	}
	b.set("setup_s", setups.median(), fmt.Sprintf("median of n=%d launches to healthz+prewarm", len(setups)))
	b.set("wall_s", walls.median(), fmt.Sprintf("per scenario (%d requests on %d conns), n=%d scenarios", 2*len(paperIDs), conns, len(walls)))
	b.set("cpu_s", cpu.Seconds()/float64(len(walls)), fmt.Sprintf("daemon user+system CPU per scenario: %.2fs over n=%d scenarios", cpu.Seconds(), len(walls)))
	b.set("p50_ms", first.q(0.5), fmt.Sprintf("first request for each artifact of a scenario, n=%d; all %d requests: p50 %.3f ms", len(first), len(lat), lat.q(0.5)))
	b.set("p90_ms", first.q(0.9), fmt.Sprintf("first request for each artifact of a scenario, n=%d; p99 %.3f ms; all requests: p90 %.3f ms", len(first), first.q(0.99), lat.q(0.9)))
	b.set("peak_rss_mb", rss.median(), fmt.Sprintf("median daemon max RSS of n=%d launches", len(rss)))
	b.notes["scenarios_per_s"] = fmt.Sprintf("%.3f (%d scenarios / %.3f s)", ratio(float64(len(walls)), walls.sum()), len(walls), walls.sum())
	return nil
}

// traceCold is serve-cold's traced pass: the daemon under the cold
// loop with its access log on (coalescing, context-LRU and checkpoint
// ratios, gate metrics), then coldTraceFresh scenarios built layer by
// layer in process, each result saved to a checkpoint store, and the
// first scenario's results loaded back as a revisit would.
func traceCold(b *bench, plan []coldScenario) error {
	client := newClient(conns)
	access := filepath.Join(b.work, "access.jsonl")
	args := append(coldDaemonArgs(), "-checkpoint-dir", filepath.Join(b.work, "ckpt"), "-access-log", access)
	d, err := startDaemon(filepath.Join(b.bin, "reprod"), args, filepath.Join(b.work, "reprod.log"), client)
	b.op(err == nil)
	if err != nil {
		return err
	}
	defer d.stop()
	cr := newColdRun(b, d.base)
	cr.loop(plan, b.seconds/2)
	if err := scrapeGate(b, client, d.base); err != nil {
		return err
	}
	if code, _, err := d.stop(); err != nil || code != 0 {
		return fmt.Errorf("reprod did not drain cleanly (exit %d): %v", code, err)
	}
	if err := accessRatios(b, access); err != nil {
		return err
	}
	if err := cr.verify(); err != nil {
		return err
	}

	// In-process layer-by-layer builds.
	t := &tracer{}
	reg := obs.NewRegistry()
	store, err := ckpt.NewStore(filepath.Join(b.work, "trace-ckpt"), nil)
	if err != nil {
		return err
	}
	var bts []buildTrace
	var first []*core.Result
	var firstCfg core.Config
	var untraced time.Duration
	var rs []rendered
	for k := 0; len(bts) < coldTraceFresh; k++ {
		if plan[k].revisit {
			continue
		}
		cfg := coldConfig(plan[k].seed)
		start := time.Now()
		if _, err := core.RunAll(core.NewContext(cfg)); err != nil {
			return err
		}
		untraced += time.Since(start)
		bt, err := tracedBuild(t, cfg, 1, reg)
		if err != nil {
			return err
		}
		bts = append(bts, bt)
		for _, r := range bt.results {
			var body []byte
			t.do("render", "render.json", func() { body, err = json.Marshal(r) })
			if err != nil {
				return err
			}
			rs = append(rs, rendered{kind: "json", body: body})
			t.do("ckpt", "ckpt.save", func() { err = store.Save(core.CheckpointKey(cfg, r.ID), r) })
			if err != nil {
				return err
			}
		}
		if first == nil {
			first, firstCfg = bt.results, cfg
		}
	}
	for _, want := range first {
		var got core.Result
		var ok bool
		t.do("ckpt", "ckpt.load", func() { ok, err = store.Load(core.CheckpointKey(firstCfg, want.ID), &got) })
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(&got)
		same := err == nil && ok && bytes.Equal(wb, gb)
		b.op(same)
		if !same {
			b.problem("checkpoint of %s did not load back the saved result (ok=%v, err=%v)", want.ID, ok, err)
		}
	}
	var ckptBytes int64
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		return err
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			ckptBytes += info.Size()
		}
	}
	setBuildMetrics(b, t, bts, reg)
	setRenderMetrics(b, t, rs)
	b.set("ckpt.save_us", ratio(us(t.total("ckpt.save")), float64(t.count("ckpt.save"))), fmt.Sprintf("mean of n=%d saves", t.count("ckpt.save")))
	b.set("ckpt.load_us", ratio(us(t.total("ckpt.load")), float64(t.count("ckpt.load"))), fmt.Sprintf("mean of n=%d loads", t.count("ckpt.load")))
	b.set("ckpt.bytes", float64(ckptBytes), fmt.Sprintf("%d checkpoint files", len(ents)))
	b.set("par.busy_ratio", 0, "the daemon builds without the worker pool")
	setShares(b, t)
	b.set("obs.trace_overhead_ratio", ratio(t.wall().Seconds(), untraced.Seconds()),
		fmt.Sprintf("base: untraced core.RunAll of the same %d scenarios, %.3fs", len(bts), untraced.Seconds()))
	return writeSpans(filepath.Join(b.work, "spans.jsonl"), t)
}

// accessRecord is the part of the daemon's access log the ratios need.
type accessRecord struct {
	Endpoint  string `json:"endpoint"`
	Coalesced bool   `json:"coalesced"`
	Leader    bool   `json:"leader"`
	CtxCached bool   `json:"ctx_cached"`
	CkptHit   bool   `json:"ckpt_hit"`
	CkptMiss  bool   `json:"ckpt_miss"`
}

// accessRatios derives the coalescing, context-LRU and checkpoint hit
// ratios of the cold loop from the daemon's access log.
func accessRatios(b *bench, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var n, shared, leaders, cached, hit, miss float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r accessRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		if r.Endpoint != "artifacts" {
			continue
		}
		n++
		if r.Coalesced {
			shared++
		}
		if r.Leader {
			leaders++
		}
		if r.CtxCached {
			cached++
		}
		if r.CkptHit {
			hit++
		}
		if r.CkptMiss {
			miss++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	b.set("serve.coalesced_ratio", ratio(shared, shared+leaders), fmt.Sprintf("base: %.0f cold requests (%.0f leaders + %.0f joiners) of %.0f", shared+leaders, leaders, shared, n))
	b.set("serve.ctx_lru_hit_ratio", ratio(cached, n), fmt.Sprintf("base: %.0f artifact requests", n))
	b.set("ckpt.hit_ratio", ratio(hit, hit+miss), fmt.Sprintf("base: %.0f checkpoint lookups", hit+miss))
	return nil
}
