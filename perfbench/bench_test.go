package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestQuantileIsCeilRankOrderStatistic(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(ten, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v (the ⌈p·n⌉-th value)", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
}

// A stalled request must charge its wait to the requests queued behind
// it: they are timed from when they were due, not from when they were
// finally sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	shots := openLoop(5, 100, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	// Request 1 was due 10 ms in but could only be sent once request 0
	// returned, 80 ms in.
	if shots[1].late < 60*time.Millisecond || shots[1].lat < shots[1].late {
		t.Errorf("request 1 behind the stall: late %v, latency %v; want both >= 60ms", shots[1].late, shots[1].lat)
	}
	if shots[1].svc > 20*time.Millisecond {
		t.Errorf("request 1's own service time %v should be short", shots[1].svc)
	}
	// Request 4 was due 40 ms in: still behind.
	if shots[4].lat < 30*time.Millisecond {
		t.Errorf("request 4 latency %v, want >= 30ms from its due time", shots[4].lat)
	}
	lat, failed := latencies(shots)
	if failed != 0 || lat.q(0.5) < 30 {
		t.Errorf("median due-time latency %v ms (failed %d), want >= 30 ms", lat.q(0.5), failed)
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	shots := []shot{{lat: time.Millisecond, ok: true}, {lat: time.Millisecond, ok: false}}
	lat, failed := latencies(shots)
	if failed != 1 || !math.IsInf(lat.q(1), 1) {
		t.Errorf("failed=%d max=%v, want 1 and +Inf", failed, lat.q(1))
	}
	if sustained(shots, 1000) {
		t.Error("a step with a failed request must not count as sustained")
	}
}

// mutating serves the real daemon handler but flips one byte of the
// body of one path, and strips nothing else.
func mutating(h http.Handler, path string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.RequestURI() == path && len(body) > 0 {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 1
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestOracleCatchesMutatedBody(t *testing.T) {
	cfg := coldConfig(baseScenario)
	_, distinct, err := hotExpected(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Base: cfg})
	bad := "/v1/artifacts/fig4?format=md"
	ts := httptest.NewServer(mutating(srv.Handler(), bad))
	defer ts.Close()

	b := &bench{vals: map[string]float64{}, notes: map[string]string{}}
	h := &hotTarget{b: b, client: ts.Client(), base: ts.URL, plan: hotPlan(7, distinct)}
	h.warm()
	for i := range h.plan {
		h.fire(i)
	}
	if b.failed == 0 || len(b.problems) == 0 {
		t.Fatalf("a mutated body went unnoticed (attempted %d)", b.attempted)
	}
	for _, p := range b.problems {
		if !strings.Contains(p, "/artifacts/fig4?format=md") {
			t.Errorf("problem reported for an intact path: %s", p)
		}
	}
	// Only the mutated path's fetches failed: every revalidation of it
	// still got an empty 304.
	if want := 1 + countKind(h.plan, "fig4?format=md"); b.failed != int64(want) {
		t.Errorf("failed = %d, want %d (the mutated path's fetches only)", b.failed, want)
	}
}

func countKind(plan []hotReq, suffix string) int {
	n := 0
	for _, rq := range plan {
		if rq.kind != "304" && strings.HasSuffix(rq.path, suffix) {
			n++
		}
	}
	return n
}

func TestOracle304MustBeEmpty(t *testing.T) {
	b := &bench{vals: map[string]float64{}, notes: map[string]string{}}
	h := &hotTarget{b: b}
	if h.check(hotReq{kind: "304", path: "/report"}, http.StatusNotModified, []byte("x"), nil) {
		t.Error("a 304 with a body passed the oracle")
	}
	if !h.check(hotReq{kind: "304", path: "/report"}, http.StatusNotModified, nil, nil) {
		t.Error("an empty 304 failed the oracle")
	}
	if h.check(hotReq{kind: "json", path: "/artifacts/fig2", want: []byte("a")}, http.StatusTooManyRequests, []byte("a"), nil) {
		t.Error("a 429 passed the oracle")
	}
}

func TestGoldenCatchesMutatedOutput(t *testing.T) {
	want := goldenEntry{ChecksPassed: 27, ChecksTotal: 30, Files: map[string]string{"fig2.dat": "aa", "report.md#fig2": "bb"}}
	order := []string{"fig2"}
	ok := batchRun{digest: goldenEntry{ChecksPassed: 27, ChecksTotal: 30, Files: map[string]string{"fig2.dat": "aa", "report.md#fig2": "bb"}}, order: order}
	if bad := checkGolden(want, ok, order); len(bad) != 0 {
		t.Fatalf("intact outputs reported: %v", bad)
	}
	for name, mutate := range map[string]func(*batchRun){
		"digest":      func(r *batchRun) { r.digest.Files["fig2.dat"] = "ab" },
		"missing":     func(r *batchRun) { delete(r.digest.Files, "fig2.dat") },
		"extra":       func(r *batchRun) { r.digest.Files["x.csv"] = "cc" },
		"checks drop": func(r *batchRun) { r.digest.ChecksPassed = 26 },
		"order":       func(r *batchRun) { r.order = []string{"fig3"} },
	} {
		r := ok
		r.digest.Files = map[string]string{}
		for k, v := range ok.digest.Files {
			r.digest.Files[k] = v
		}
		mutate(&r)
		if bad := checkGolden(want, r, order); len(bad) == 0 {
			t.Errorf("%s: mutation not caught", name)
		}
	}
}

func TestReportSectionsIgnoreOrder(t *testing.T) {
	a := []byte("# R\n\n## fig2 — A\n\nx\n\n## fig3 — B\n\ny\n\n")
	b := []byte("# R\n\n## fig3 — B\n\ny\n\n## fig2 — A\n\nx\n\n")
	sa, oa := reportSections(a)
	sb, ob := reportSections(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("section digests differ with order: %v vs %v", sa, sb)
	}
	if !reflect.DeepEqual(oa, []string{"fig2", "fig3"}) || !reflect.DeepEqual(ob, []string{"fig3", "fig2"}) {
		t.Errorf("orders %v %v", oa, ob)
	}
}

// The seed moves the inputs — request order, which variants are
// revalidated, scenario seeds, experiment order — but never the
// workload's shape.
func TestSeedChangesInputsNotShape(t *testing.T) {
	var distinct []rendered
	for i, k := range []string{"json", "md", "csv", "dat", "dat", "report", "json", "md", "csv", "dat"} {
		distinct = append(distinct, rendered{kind: k, path: "/p" + string(rune('a'+i))})
	}
	p1, p2 := hotPlan(1, distinct), hotPlan(2, distinct)
	if !reflect.DeepEqual(kindCounts(p1), kindCounts(p2)) {
		t.Errorf("hot mix shape moved with the seed: %v vs %v", kindCounts(p1), kindCounts(p2))
	}
	if reflect.DeepEqual(p1, p2) {
		t.Error("hot mix did not change with the seed")
	}
	if !reflect.DeepEqual(p1, hotPlan(1, distinct)) {
		t.Error("hot mix is not a function of the seed")
	}
	if got := kindCounts(p1)["304"]; got != 3 {
		t.Errorf("revalidations = %d of %d, want 3 (20%%)", got, len(p1))
	}

	c1, c2 := coldPlan(1, 200), coldPlan(2, 200)
	for k := range c1 {
		if c1[k].revisit != c2[k].revisit {
			t.Fatalf("scenario %d: revisit pattern moved with the seed", k)
		}
		if c1[k].seed == c2[k].seed {
			t.Errorf("scenario %d: same scenario seed for both workload seeds", k)
		}
	}
	for _, plan := range [][]coldScenario{c1, c2} {
		last := map[uint64]int{}
		revisits := 0
		for k, sc := range plan {
			if sc.revisit {
				revisits++
				if k%coldRevisitEvery != coldRevisitEvery-1 {
					t.Errorf("revisit at %d, off the every-%d pattern", k, coldRevisitEvery)
				}
				if k-last[sc.seed] < coldRevisitGap {
					t.Errorf("scenario %d revisits a seed used %d scenarios ago, still in the context LRU", k, k-last[sc.seed])
				}
			} else if _, seen := last[sc.seed]; seen {
				t.Errorf("scenario %d: fresh seed %d repeats", k, sc.seed)
			}
			last[sc.seed] = k
		}
		if revisits < 200/coldRevisitEvery-4 {
			t.Errorf("only %d revisits in 200 scenarios", revisits)
		}
	}

	o1, o2 := batchOrder(1), batchOrder(2)
	if reflect.DeepEqual(o1, o2) {
		t.Error("experiment order did not change with the seed")
	}
	for _, o := range [][]string{o1, o2} {
		w := append([]string(nil), o[:len(batchGroups[0])]...)
		s := append([]string(nil), o[len(batchGroups[0]):]...)
		sort.Strings(w)
		sort.Strings(s)
		gw := append([]string(nil), batchGroups[0]...)
		gs := append([]string(nil), batchGroups[1]...)
		sort.Strings(gw)
		sort.Strings(gs)
		if !reflect.DeepEqual(w, gw) || !reflect.DeepEqual(s, gs) {
			t.Errorf("order %v is not the two groups, each permuted", o)
		}
	}
}

func kindCounts(plan []hotReq) map[string]int {
	m := map[string]int{}
	for _, rq := range plan {
		m[rq.kind]++
	}
	return m
}

func TestSelfTimeSubtractsChildrenAndSkips(t *testing.T) {
	tr := &tracer{}
	tr.do("core", "outer", func() {
		time.Sleep(20 * time.Millisecond)
		tr.do("render", "inner", func() { time.Sleep(20 * time.Millisecond) })
	})
	tr.do("skip", "warm", func() {
		tr.do("synth", "inside-skip", func() { time.Sleep(10 * time.Millisecond) })
	})
	self := tr.selfTimes()
	if self["core"] < 15*time.Millisecond || self["core"] > 35*time.Millisecond {
		t.Errorf("core self time %v, want about 20ms (outer minus inner)", self["core"])
	}
	if self["render"] < 15*time.Millisecond {
		t.Errorf("render self time %v, want about 20ms", self["render"])
	}
	if self["synth"] != 0 || tr.count("inside-skip") != 0 {
		t.Errorf("work under a skip span was attributed: synth %v", self["synth"])
	}
	if w := tr.wall(); w < 35*time.Millisecond || w > 80*time.Millisecond {
		t.Errorf("wall %v, want the outer span only (about 40ms)", w)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, program has %d workloads", names, len(workloads))
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", spec.PerLayer, perLayer)
	}
}

func TestCLIArgumentErrorsPrintNoResult(t *testing.T) {
	var out, errw bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &out, &errw); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
