package cluster

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchInputs builds a small but non-trivial simulation input set once
// per benchmark.
func benchInputs(b *testing.B) ([]trace.Machine, []trace.Task, Config) {
	b.Helper()
	const n = 25
	horizon := int64(86400)
	s := rng.New(11)
	machines := synth.GoogleMachines(n, s.Child("m"))
	gcfg := synth.ScaledGoogleConfig(n, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("w"))
	return machines, tasks, DefaultConfig(machines, horizon)
}

func benchSimulate(b *testing.B, reg *obs.Registry) {
	b.ReportAllocs()
	_, tasks, cfg := benchInputs(b)
	cfg.Metrics = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, tasks, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate vs BenchmarkSimulateInstrumented isolates the
// event-loop counter/histogram overhead of cfg.Metrics.
func BenchmarkSimulate(b *testing.B) { benchSimulate(b, nil) }

func BenchmarkSimulateInstrumented(b *testing.B) {
	benchSimulate(b, obs.NewRegistry())
}

// BenchmarkSimulatePreemptHeavy runs the core seed-1 scenario at 200
// machines for one simulated day (~3.4k preemptions), the regime where
// failed placements and preemption searches dominate the event loop.
// BenchmarkSimulate's 25-machine input never gets there.
func BenchmarkSimulatePreemptHeavy(b *testing.B) {
	b.ReportAllocs()
	cfg, tasks := coreInputs(1, 200, 86400)
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Simulate(cfg, tasks, rng.New(1).Child("sim")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Preemptions), "preemptions")
}

// newPlaceBench builds just enough of a sim to drive the placement
// path: machines, metrics, and (for the indexed variant) the capacity
// index. No event loop, accumulators, or output buffers.
func newPlaceBench(n int, reference bool) *sim {
	s := rng.New(7)
	machines := synth.GoogleMachines(n, s.Child("m"))
	sm := &sim{
		cfg: Config{Machines: machines, Placement: Balanced, ReferencePlacement: reference},
		s:   s.Child("sim"),
		met: newSimMetrics(nil),
	}
	states := make([]machineState, n)
	for i, m := range machines {
		ms := &states[i]
		ms.m, ms.freeCPU, ms.freeMem = m, m.CPU, m.Memory
		sm.machines = append(sm.machines, ms)
	}
	if !reference {
		sm.pidx = newPlaceIndex(sm)
	}
	return sm
}

// placeBenchTasks is the request mix every BenchmarkPlace case draws
// from: 2-20% of a unit machine per dimension, a quarter of them
// constrained to the 0.5-CPU class and up.
func placeBenchTasks() []trace.Task {
	ts := rng.New(13)
	tasks := make([]trace.Task, 512)
	for i := range tasks {
		tasks[i] = trace.Task{
			CPUReq: ts.Range(0.02, 0.20),
			MemReq: ts.Range(0.02, 0.20),
		}
		if ts.Bool(0.25) {
			tasks[i].MinCPUClass = 0.5
		}
	}
	return tasks
}

// benchPlace measures one place+reserve with a bounded working set:
// each op also releases the task placed 64 ops earlier, so free
// capacity keeps changing and the index path pays its update cost.
// Nearly every placement succeeds.
func benchPlace(b *testing.B, n int, reference bool) {
	b.ReportAllocs()
	sm := newPlaceBench(n, reference)
	tasks := placeBenchTasks()
	type placed struct {
		mi int
		t  *trace.Task
	}
	ring := make([]placed, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tasks[i%len(tasks)]
		if len(ring) == cap(ring) {
			old := ring[0]
			ring = append(ring[:0], ring[1:]...)
			sm.release(old.mi, old.t)
		}
		if mi := sm.place(t); mi >= 0 {
			sm.reserve(mi, t)
			ring = append(ring, placed{mi, t})
		}
	}
}

// benchPlaceFull measures placement on a packed park, the regime of a
// preemption-heavy run where most placements fail. Setup packs the
// park until 512 requests in a row fail; each op then places one
// request and, if it fits, reserves and releases it again, so the
// park stays packed and the success path still pays its updates.
func benchPlaceFull(b *testing.B, n int, reference bool) {
	b.ReportAllocs()
	sm := newPlaceBench(n, reference)
	tasks := placeBenchTasks()
	for i, misses := 0, 0; misses < len(tasks); i++ {
		t := &tasks[i%len(tasks)]
		if mi := sm.place(t); mi >= 0 {
			sm.reserve(mi, t)
			misses = 0
		} else {
			misses++
		}
	}
	// Swap in smaller requests so a few still fit somewhere.
	for i := range tasks {
		tasks[i].CPUReq /= 2
		tasks[i].MemReq /= 2
	}
	fails := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tasks[i%len(tasks)]
		if mi := sm.place(t); mi >= 0 {
			sm.reserve(mi, t)
			sm.release(mi, t)
		} else {
			fails++
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "fail/op")
}

// BenchmarkPlace scales the placement policies over machine counts up
// to the full-trace 12500 (sub-benchmark names use only slashes, so
// the -procs suffix go test appends is unambiguous). The full/ cases
// run on a packed park where most placements fail.
func BenchmarkPlace(b *testing.B) {
	for _, n := range []int{100, 1000, synth.FullScaleMachines} {
		b.Run(fmt.Sprintf("ref/%d", n), func(b *testing.B) { benchPlace(b, n, true) })
		b.Run(fmt.Sprintf("indexed/%d", n), func(b *testing.B) { benchPlace(b, n, false) })
		b.Run(fmt.Sprintf("full/ref/%d", n), func(b *testing.B) { benchPlaceFull(b, n, true) })
		b.Run(fmt.Sprintf("full/indexed/%d", n), func(b *testing.B) { benchPlaceFull(b, n, false) })
	}
}
