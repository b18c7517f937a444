package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function of that layer. Parent is the index of the
// enclosing span, or -1 for a root.
type span struct {
	Name       string
	Layer      string
	Start, End time.Time
	Parent     int
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for one traced pass; they are only read
// once the pass is over. It is used from one goroutine.
type tracer struct {
	spans []span
	stack []int
}

// do runs fn inside a span named name that belongs to layer.
func (t *tracer) do(layer, name string, fn func()) time.Duration {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Now(), Parent: parent})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].End = time.Now()
	return t.spans[idx].dur()
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part covered by their direct children. Spans in layer
// "skip" (work the pass repeats only to reach a state, such as warming
// the core cells) count for no layer, and neither do their children.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if t.skipped(i) {
			continue
		}
		out[s.Layer] += s.dur() - child[i]
	}
	return out
}

func (t *tracer) skipped(i int) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if t.spans[i].Layer == "skip" {
			return true
		}
	}
	return false
}

// matching returns the spans, outside skipped ones, named name (or,
// with a trailing '*', whose names start with the prefix before it).
func (t *tracer) matching(name string) []span {
	var out []span
	prefix, wild := strings.CutSuffix(name, "*")
	for i, s := range t.spans {
		if !t.skipped(i) && (s.Name == name || wild && strings.HasPrefix(s.Name, prefix)) {
			out = append(out, s)
		}
	}
	return out
}

// total returns the summed duration of the spans matching name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.matching(name) {
		d += s.dur()
	}
	return d
}

// count returns how many spans match name.
func (t *tracer) count(name string) int { return len(t.matching(name)) }

// wall returns the time covered by the pass's root spans, minus the
// skipped ones.
func (t *tracer) wall() time.Duration {
	var d time.Duration
	for i, s := range t.spans {
		if s.Parent == -1 && !t.skipped(i) {
			d += s.dur()
		}
	}
	return d
}

// writeSpans writes the pass's spans as JSON lines, one per span, with
// times in microseconds from the first span's start.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var origin time.Time
	if len(t.spans) > 0 {
		origin = t.spans[0].Start
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			Layer   string  `json:"layer"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{i, s.Parent, s.Name, s.Layer, us(s.Start.Sub(origin)), us(s.End.Sub(origin))}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
