package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"testing"
)

// FuzzQueryParams feeds arbitrary query strings to the two parsers
// that turn outside input into build sizes. Every query they accept
// must stay within the artifact bounds (maxMachinesParam,
// maxDaysParam) and the prediction bounds (maxPredict*), and a given
// parameter must be taken at its parsed value, with everything else
// left at its default.
func FuzzQueryParams(f *testing.F) {
	for _, q := range []string{
		"",
		"machines=0",
		"machines=notanumber",
		"days=9999",
		"workload_days=-3",
		"seed=abc",
		"seed=11&machines=12&days=2&workload_days=1",
		fmt.Sprintf("machines=%d&days=%d&workload_days=%d", maxMachinesParam, maxDaysParam, maxDaysParam),
		cheapScenarioQuery,
		"system=Google&hosts=20&days=4&seed=1&k=1&hmm=0",
		"system=Amazon",
		"hosts=0",
		fmt.Sprintf("hosts=%d", maxPredictHosts+1),
		"days=nope",
		fmt.Sprintf("days=%d", maxPredictDays+1),
		"k=0",
		fmt.Sprintf("k=%d", maxPredictK+1),
		"seed=-1",
		"hmm=maybe",
	} {
		f.Add(q)
	}
	base := tinyConfig()
	s := &Server{base: base}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // the handlers read r.URL.Query(), which drops malformed pairs too

		if cfg, err := s.configFor(q); err == nil {
			if cfg.Machines < 1 || cfg.Machines > maxMachinesParam {
				t.Fatalf("%q: machines %d outside [1, %d]", raw, cfg.Machines, maxMachinesParam)
			}
			for _, h := range []int64{cfg.SimHorizon, cfg.WorkloadHorizon} {
				if h < 86400 || h > maxDaysParam*86400 || h%86400 != 0 {
					t.Fatalf("%q: horizon %d s is not 1..%d whole days", raw, h, maxDaysParam)
				}
			}
			want := base
			if v := q.Get("seed"); v != "" {
				want.Seed, _ = strconv.ParseUint(v, 10, 64)
			}
			if v := q.Get("machines"); v != "" {
				want.Machines, _ = strconv.Atoi(v)
			}
			if v := q.Get("days"); v != "" {
				n, _ := strconv.Atoi(v)
				want.SimHorizon = int64(n) * 86400
			}
			if v := q.Get("workload_days"); v != "" {
				n, _ := strconv.Atoi(v)
				want.WorkloadHorizon = int64(n) * 86400
			}
			if cfg != want {
				t.Fatalf("%q: config %+v, want %+v", raw, cfg, want)
			}
		}

		if sc, err := predictScenarioFor(q); err == nil {
			switch sc.System {
			case "Google", "AuverGrid", "SHARCNET":
			default:
				t.Fatalf("%q: system %q accepted", raw, sc.System)
			}
			if sc.Hosts < 1 || sc.Hosts > maxPredictHosts {
				t.Fatalf("%q: hosts %d outside [1, %d]", raw, sc.Hosts, maxPredictHosts)
			}
			if sc.Days < 1 || sc.Days > maxPredictDays {
				t.Fatalf("%q: days %d outside [1, %d]", raw, sc.Days, maxPredictDays)
			}
			if sc.K < 1 || sc.K > maxPredictK {
				t.Fatalf("%q: k %d outside [1, %d]", raw, sc.K, maxPredictK)
			}
		}
	})
}
