package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one request the generator sent.
type shot struct {
	lat  time.Duration // open loop: completion - due time; closed loop: completion - send
	late time.Duration // send - due time (0 in a closed loop)
	svc  time.Duration // completion - send
	ok   bool
}

// fireFunc sends request i and reports whether the response was right.
type fireFunc func(i int) bool

// openLoop sends n requests on a fixed schedule, request i due at
// i/rate after the start, from conns goroutines. Each request is timed
// from when it was due, so a stalled request charges its wait to every
// request queued behind it; late records how far behind the generator
// was when it actually sent.
func openLoop(n int, rate float64, conns int, fire fireFunc) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	t0 := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := fire(i)
				end := time.Now()
				shots[i] = shot{lat: end.Sub(due), late: sent.Sub(due), svc: end.Sub(sent), ok: ok}
			}
		}()
	}
	wg.Wait()
	return shots
}

// closedLoop sends n requests from conns goroutines, each sending its
// next request as soon as the previous one completes. It returns the
// shots and the wall time of the whole loop.
func closedLoop(n, conns int, fire fireFunc) ([]shot, time.Duration) {
	shots := make([]shot, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Now()
				ok := fire(i)
				d := time.Since(sent)
				shots[i] = shot{lat: d, svc: d, ok: ok}
			}
		}()
	}
	wg.Wait()
	return shots, time.Since(start)
}

// latencies returns the shots' latencies in ms, with failed requests
// counted as missing every limit (+Inf), and the number that failed.
func latencies(shots []shot) (sample, int) {
	out := make(sample, len(shots))
	failed := 0
	for i, s := range shots {
		out[i] = ms(s.lat)
		if !s.ok {
			out[i] = math.Inf(1)
			failed++
		}
	}
	return out, failed
}

// sustained reports whether a ladder step kept up: nothing failed, the
// p99 due-time latency stayed within limit, and the generator was not
// falling further behind at the end (the last tenth of requests were
// sent within limit of their due time).
func sustained(shots []shot, limitMS float64) bool {
	lat, failed := latencies(shots)
	if failed > 0 || len(shots) == 0 || lat.q(0.99) > limitMS {
		return false
	}
	for _, s := range shots[len(shots)*9/10:] {
		if ms(s.late) > limitMS {
			return false
		}
	}
	return true
}

// ladder offers each rate in turn for step and returns the highest
// rate sustained before the first that was not, and every step's shots.
func ladder(rates []float64, step time.Duration, conns int, limitMS float64, fire fireFunc) (float64, [][]shot) {
	best := 0.0
	var all [][]shot
	for _, r := range rates {
		shots := openLoop(int(r*step.Seconds()), r, conns, fire)
		all = append(all, shots)
		if !sustained(shots, limitMS) {
			break
		}
		best = r
	}
	return best, all
}
