package cluster

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// identityConfig builds a workload with churn and preemption armed so
// the indexed placement path exercises machine-down/up index updates
// and the preemption eligible-class lists, not just the happy path.
func identityConfig(t *testing.T, seed uint64, pol Policy) (Config, []trace.Task) {
	t.Helper()
	machines := synth.GoogleMachines(18, rng.New(seed))
	horizon := int64(12 * 3600)
	cfg := DefaultConfig(machines, horizon)
	cfg.Placement = pol
	cfg.ChurnMTBF = 4 * 3600
	cfg.ChurnDowntime = 1800
	gcfg := synth.ScaledGoogleConfig(len(machines), horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(seed+100))
	return cfg, tasks
}

// coreInputs builds the simulation internal/core runs for a scenario
// seed: the same machine park and workload. Simulate it with the
// stream rng.New(seed).Child("sim") to match core exactly.
func coreInputs(seed uint64, machines int, horizon int64) (Config, []trace.Task) {
	s := rng.New(seed)
	ms := synth.GoogleMachines(machines, s.Child("machines"))
	gcfg := synth.ScaledGoogleConfig(machines, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("google-sim"))
	return DefaultConfig(ms, horizon), tasks
}

// TestReferencePlacementByteIdentical pins the tentpole invariant: the
// capacity-indexed placement path must reproduce the original linear
// scan event-for-event, across seeds and policies. Any divergence in
// scoring, tie-breaking, or index staleness handling shows up here as
// the first differing event.
//
// The churn cases cover machine-down/up index updates. The
// preemption-heavy cases run the core seed-1 scenario, where most
// scheduling passes end in a preemption search, so they pin the
// preemption prefilter too: the reference path walks every machine's
// running list, the indexed path skips the machines it rules out.
func TestReferencePlacementByteIdentical(t *testing.T) {
	for _, pol := range []Policy{Balanced, BestFit, Random} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/seed%d", pol, seed), func(t *testing.T) {
				cfg, tasks := identityConfig(t, seed, pol)
				assertSameRun(t, cfg, tasks, rng.New(seed+200))
			})
		}
	}
	// minPreemptions sits well below what each case produces today
	// (Balanced 951, BestFit 1116) so the case fails loudly, rather
	// than passing vacuously, if the workload stops preempting.
	const minPreemptions = 500
	for _, pol := range []Policy{Balanced, BestFit} {
		t.Run(fmt.Sprintf("%v/preempt-heavy", pol), func(t *testing.T) {
			cfg, tasks := coreInputs(1, 40, 86400)
			cfg.Placement = pol
			res := assertSameRun(t, cfg, tasks, rng.New(1).Child("sim"))
			if res.Stats.Preemptions < minPreemptions {
				t.Fatalf("only %d preemptions, want >= %d: the case no longer exercises preemption",
					res.Stats.Preemptions, minPreemptions)
			}
		})
	}
}

// assertSameRun simulates cfg, traced, with and without
// ReferencePlacement and fails on the first difference in events,
// machine events, stats or CPU series. It returns the reference result.
func assertSameRun(t *testing.T, cfg Config, tasks []trace.Task, s *rng.Stream) *Result {
	t.Helper()
	refCfg := cfg
	refCfg.ReferencePlacement = true
	ref := simulateTraced(t, refCfg, tasks, s)
	idx := simulateTraced(t, cfg, tasks, s)

	if len(ref.Events) != len(idx.Events) {
		t.Fatalf("event counts differ: reference %d vs indexed %d",
			len(ref.Events), len(idx.Events))
	}
	for i := range ref.Events {
		if ref.Events[i] != idx.Events[i] {
			t.Fatalf("event %d differs:\nreference %+v\nindexed   %+v",
				i, ref.Events[i], idx.Events[i])
		}
	}
	if len(ref.MachineEvents) != len(idx.MachineEvents) {
		t.Fatalf("machine event counts differ: %d vs %d",
			len(ref.MachineEvents), len(idx.MachineEvents))
	}
	for i := range ref.MachineEvents {
		if ref.MachineEvents[i] != idx.MachineEvents[i] {
			t.Fatalf("machine event %d differs", i)
		}
	}
	if ref.Stats.Preemptions != idx.Stats.Preemptions ||
		ref.Stats.Attempts != idx.Stats.Attempts ||
		ref.Stats.NeverScheduled != idx.Stats.NeverScheduled {
		t.Fatalf("stats differ:\nreference %+v\nindexed   %+v", ref.Stats, idx.Stats)
	}
	for typ, n := range ref.Stats.EventCounts {
		if idx.Stats.EventCounts[typ] != n {
			t.Fatalf("%v count: reference %d vs indexed %d",
				typ, n, idx.Stats.EventCounts[typ])
		}
	}
	for mi := range ref.Machines {
		rv := ref.Machines[mi].CPU().Values
		iv := idx.Machines[mi].CPU().Values
		for k := range rv {
			if rv[k] != iv[k] {
				t.Fatalf("machine %d CPU sample %d differs: %v vs %v",
					mi, k, rv[k], iv[k])
			}
		}
	}
	return ref
}

// TestEventQueueOrdering checks the 4-ary heap against its contract
// directly: pops come out in strictly increasing (time, seq) order for
// an adversarial mix of duplicate times and interleaved push/pop.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	s := rng.New(42)
	var seq int64
	push := func(time int64) {
		q.push(simEvent{time: time, seq: seq})
		seq++
	}
	// Bulk phase: many duplicate timestamps.
	for i := 0; i < 2000; i++ {
		push(s.Int64N(50))
	}
	// Interleaved phase: pop a few, push a few, like the live loop.
	popped := make([]simEvent, 0, 4000)
	for q.len() > 0 {
		e := q.pop()
		popped = append(popped, e)
		if len(popped) < 1000 && s.Bool(0.5) {
			push(e.time + s.Int64N(20))
		}
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if b.time < a.time {
			t.Fatalf("pop %d out of time order: %d after %d", i, b.time, a.time)
		}
		if b.time == a.time && b.seq < a.seq {
			t.Fatalf("pop %d breaks FIFO within time %d: seq %d after %d",
				i, b.time, b.seq, a.seq)
		}
	}
}
