package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"

	"repro/internal/core"
)

// errNoVariant reports a table or series name the artifact does not
// have (a 404, not a render failure).
var errNoVariant = errors.New("serve: no such variant")

// artifact is one finished experiment result as immutable bytes. The
// JSON body is the checkpoint payload itself; every other variant —
// "md", "csv:<table>", "dat:<series>" — is rendered at most once, on
// its first request, from the payload decoded at that point, so a
// variant nobody asks for costs nothing and an artifact only ever
// served as JSON is never held decoded.
type artifact struct {
	payload []byte // json.Marshal(*core.Result), as stored and peer-filled

	mu       sync.Mutex
	res      *core.Result // payload decoded on first need
	rendered map[string][]byte
}

// body returns the artifact's bytes for variant (see artifactETag for
// the variant names).
func (a *artifact) body(variant string) ([]byte, error) {
	if variant == "json" {
		return a.payload, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.rendered[variant]; ok {
		return b, nil
	}
	if a.res == nil {
		var r core.Result
		if err := json.Unmarshal(a.payload, &r); err != nil {
			return nil, err
		}
		a.res = &r
	}
	b, err := render(a.res, variant)
	if err != nil {
		return nil, err
	}
	if a.rendered == nil {
		a.rendered = make(map[string][]byte)
	}
	a.rendered[variant] = b
	return b, nil
}

// render produces one non-JSON variant through the same renderers
// cmd/repro writes its files with.
func render(r *core.Result, variant string) ([]byte, error) {
	var buf bytes.Buffer
	kind, name, _ := strings.Cut(variant, ":")
	switch kind {
	case "md":
		if err := core.WriteResultMarkdown(&buf, r); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case "csv":
		for _, tbl := range r.Tables {
			if tbl.ID == name {
				err := tbl.WriteCSV(&buf)
				return buf.Bytes(), err
			}
		}
	case "dat":
		for _, ser := range r.Series {
			if ser.ID == name {
				err := ser.WriteDAT(&buf)
				return buf.Bytes(), err
			}
		}
	}
	return nil, errNoVariant
}

// artifactTier is the daemon's one in-process cache of served bytes:
// the finished artifacts of every scenario in the context LRU, keyed by
// checkpoint key. Its residency follows that LRU exactly — a scenario's
// artifacts are dropped when the scenario is evicted — so it holds
// every artifact of the MaxContexts most recent scenarios and nothing
// else.
type artifactTier struct {
	mu sync.Mutex
	m  map[string]*artifact
}

func (t *artifactTier) get(key string) (*artifact, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.m[key]
	return a, ok
}

// put caches a finished artifact of scenario e, unless e was evicted
// while the artifact was being built: an orphan would never be dropped.
func (t *artifactTier) put(e *entry, key string, a *artifact) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !e.evicted {
		t.m[key] = a
	}
}

// drop forgets the artifacts of an evicted scenario.
func (t *artifactTier) drop(e *entry, keys []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.evicted = true
	for _, k := range keys {
		delete(t.m, k)
	}
}
