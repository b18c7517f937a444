package cluster

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

func TestPlacementConstraintRespected(t *testing.T) {
	machines := []trace.Machine{
		{ID: 0, CPU: 0.25, Memory: 1, PageCache: 1},
		{ID: 1, CPU: 0.5, Memory: 1, PageCache: 1},
		{ID: 2, CPU: 1.0, Memory: 1, PageCache: 1},
	}
	cfg := DefaultConfig(machines, 3600)
	cfg.Outcomes = alwaysFinish()
	task := oneTask(1, 0, 5, 0.1, 0.1, 600)
	task.MinCPUClass = 1.0
	res := simulateTraced(t, cfg, []trace.Task{task}, rng.New(1))
	for _, e := range res.Events {
		if e.Type == trace.EventSchedule && e.Machine != 2 {
			t.Fatalf("constrained task placed on machine %d", e.Machine)
		}
	}
	if res.Stats.Attempts != 1 {
		t.Fatalf("attempts %d", res.Stats.Attempts)
	}
}

func TestConstraintBlocksWhenNoMachineQualifies(t *testing.T) {
	machines := []trace.Machine{{ID: 0, CPU: 0.25, Memory: 1, PageCache: 1}}
	cfg := DefaultConfig(machines, 3600)
	cfg.Outcomes = alwaysFinish()
	task := oneTask(1, 0, 5, 0.1, 0.1, 600)
	task.MinCPUClass = 1.0
	res, err := Simulate(cfg, []trace.Task{task}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempts != 0 {
		t.Fatal("constrained task scheduled on an unqualified machine")
	}
	if res.Stats.NeverScheduled != 1 {
		t.Fatalf("never scheduled %d, want 1", res.Stats.NeverScheduled)
	}
}

func TestConstraintWithPreemption(t *testing.T) {
	// The big machine is fully reserved by a low-priority task; a
	// constrained high-priority task must preempt it there rather than
	// run on the (forbidden) small machine.
	machines := []trace.Machine{
		{ID: 0, CPU: 0.25, Memory: 1, PageCache: 1},
		{ID: 1, CPU: 1.0, Memory: 1, PageCache: 1},
	}
	cfg := DefaultConfig(machines, 7200)
	cfg.Outcomes = alwaysFinish()
	cfg.MaxRetries = 0
	low := oneTask(1, 0, 2, 0.95, 0.9, 5000)
	high := oneTask(2, 100, 11, 0.9, 0.5, 600)
	high.MinCPUClass = 1.0
	res := simulateTraced(t, cfg, []trace.Task{low, high}, rng.New(3))
	var highMachine = -1
	var lowEvicted bool
	for _, e := range res.Events {
		if e.Type == trace.EventSchedule && e.JobID == 2 {
			highMachine = e.Machine
		}
		if e.Type == trace.EventEvict && e.JobID == 1 {
			lowEvicted = true
		}
	}
	if highMachine != 1 {
		t.Fatalf("constrained high-priority task on machine %d, want 1", highMachine)
	}
	if !lowEvicted {
		t.Fatal("low-priority task not preempted on the constrained machine")
	}
}
