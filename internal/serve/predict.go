package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/predict"
)

// Prediction-parameter guard rails. A prediction scenario simulates a
// whole host population per request, so the bounds are much tighter
// than the artifact routes': 200 hosts × 60 days is already a
// several-second build.
const (
	maxPredictHosts = 200
	maxPredictDays  = 60
	maxPredictK     = 288 // one day of 5-minute steps
)

// predictScenarioFor parses ?system=&hosts=&days=&seed=&k=&hmm= into a
// predict.Scenario, defaulting to cmd/predict's defaults (Google, 20
// hosts, 4 days, seed 1, k 1) so a bare GET /v1/predict serves exactly
// what a bare `predict` invocation prints.
func predictScenarioFor(q url.Values) (predict.Scenario, error) {
	sc := predict.Scenario{System: "Google", Hosts: 20, Days: 4, Seed: 1, K: 1}
	if v := q.Get("system"); v != "" {
		switch v {
		case "Google", "AuverGrid", "SHARCNET":
			sc.System = v
		default:
			return sc, fmt.Errorf("system: want Google, AuverGrid or SHARCNET, got %q", v)
		}
	}
	intParam := func(name string, max int, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > max {
			return fmt.Errorf("%s: want an integer in [1, %d], got %q", name, max, v)
		}
		*dst = n
		return nil
	}
	if err := intParam("hosts", maxPredictHosts, &sc.Hosts); err != nil {
		return sc, err
	}
	if err := intParam("days", maxPredictDays, &sc.Days); err != nil {
		return sc, err
	}
	if err := intParam("k", maxPredictK, &sc.K); err != nil {
		return sc, err
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return sc, fmt.Errorf("seed: %q is not a uint64", v)
		}
		sc.Seed = n
	}
	if v := q.Get("hmm"); v != "" {
		switch v {
		case "1", "true":
			sc.HMM = true
		case "0", "false":
			sc.HMM = false
		default:
			return sc, fmt.Errorf("hmm: want 0, 1, true or false, got %q", v)
		}
	}
	return sc, nil
}

// predictBodies is one scenario report rendered once into both
// served variants: the plain text cmd/predict prints and the JSON of
// ?format=json.
type predictBodies struct {
	text, json []byte
}

// predictFor returns the scenario's rendered report, serving the
// LRU-cached bodies when warm and otherwise coalescing all concurrent
// cold requests for the same canonical scenario into one RunScenario
// under the server's lifetime context. ctx is the requester's wait
// budget only.
func (s *Server) predictFor(ctx context.Context, sc predict.Scenario) (*predictBodies, error) {
	key := sc.Canonical()
	if b, ok := s.predictCache.get(key); ok {
		s.predictHit.Add(1)
		return b, nil
	}
	v, shared, err := s.predictSF.Do(ctx, key, func() (any, error) {
		// Like artifact builds, the computation itself runs to
		// completion under the server's lifetime context even if every
		// waiting requester disconnects: the next request for this
		// scenario then hits the cache. RunScenario is CPU-bound and
		// uncancellable, so only the wait is governed by ctx.
		rep, err := predict.RunScenario(sc)
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			return nil, err
		}
		js, err := json.Marshal(rep)
		if err != nil {
			return nil, fmt.Errorf("encode response: %w", err)
		}
		b := &predictBodies{text: text.Bytes(), json: js}
		s.predictCache.put(key, b)
		return b, nil
	})
	if shared {
		s.coShared.Add(1)
	}
	if err != nil {
		return nil, err
	}
	return v.(*predictBodies), nil
}

// handlePredict serves GET /v1/predict: the host-load prediction
// scenario report, as plain text byte-identical to cmd/predict
// (default) or as JSON with ?format=json.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	if format != "" && format != "json" && format != "text" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format: want text or json, got %q", format))
		return
	}
	sc, err := predictScenarioFor(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	variant := "text"
	if format == "json" {
		variant = "json"
	}
	if s.revalidate(w, r, predictETag(sc.Canonical(), variant)) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.Release()
	b, err := s.predictFor(r.Context(), sc)
	if err != nil {
		s.writeBuildError(w, err)
		return
	}
	if format == "json" {
		writeBytes(w, "application/json", b.json)
		return
	}
	writeBytes(w, "text/plain; charset=utf-8", b.text)
}
