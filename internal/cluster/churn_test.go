package cluster

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

func TestChurnEvictsRunningTasks(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 6*3600)
	cfg.Outcomes = alwaysFinish()
	cfg.MaxRetries = 0
	cfg.EvictRetryP = 0
	cfg.ChurnMTBF = 3600 // fail about every hour
	cfg.ChurnDowntime = 600
	// One long task that would otherwise run the whole horizon.
	tasks := []trace.Task{oneTask(1, 0, 5, 0.5, 0.5, 5*3600)}
	res := simulateTraced(t, cfg, tasks, rng.New(1))
	if res.Stats.MachineFailures == 0 {
		t.Fatal("no machine failures with churn enabled")
	}
	evicted := false
	for _, e := range res.Events {
		if e.Type == trace.EventEvict {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("churn did not evict the running task")
	}
	// Event stream must still satisfy the state machine.
	tr := &trace.Trace{Events: res.Events}
	if err := tr.Validate(); err != nil {
		t.Fatalf("churned stream invalid: %v", err)
	}
}

func TestChurnedMachineNotPlacedOn(t *testing.T) {
	// A two-machine park where machine churn is frequent: tasks still
	// schedule (on whichever machine is up) and capacity accounting
	// never goes negative.
	cfg := DefaultConfig(smallPark(2), 12*3600)
	cfg.Outcomes = alwaysFinish()
	cfg.ChurnMTBF = 2 * 3600
	cfg.ChurnDowntime = 1800
	var tasks []trace.Task
	s := rng.New(2)
	for i := 0; i < 100; i++ {
		tasks = append(tasks, oneTask(int64(i+1), s.Int64N(10*3600), 5, 0.2, 0.2, 600))
	}
	res, err := Simulate(cfg, tasks, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempts == 0 {
		t.Fatal("nothing scheduled under churn")
	}
	for _, m := range res.Machines {
		for i, v := range m.CPU().Values {
			if v < -1e-9 {
				t.Fatalf("negative CPU usage at %d: %v", i, v)
			}
		}
	}
}

func TestChurnDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	if cfg.ChurnMTBF != 0 {
		t.Fatal("churn should be off by default")
	}
	cfg.Outcomes = alwaysFinish()
	res, err := Simulate(cfg, []trace.Task{oneTask(1, 0, 5, 0.1, 0.1, 60)}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MachineFailures != 0 {
		t.Fatal("failures without churn")
	}
}

func TestChurnWithRetriesRestartsTasks(t *testing.T) {
	cfg := DefaultConfig(smallPark(2), 8*3600)
	cfg.Outcomes = alwaysFinish()
	cfg.ChurnMTBF = 3 * 3600
	cfg.ChurnDowntime = 900
	cfg.EvictRetryP = 1
	cfg.MaxRetries = 5
	tasks := []trace.Task{oneTask(1, 0, 5, 0.3, 0.3, 2*3600)}
	res, err := Simulate(cfg, tasks, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// If the task was evicted by churn it must have been resubmitted.
	evicts := res.Stats.EventCounts[trace.EventEvict]
	submits := res.Stats.EventCounts[trace.EventSubmit]
	if evicts > 0 && submits < 2 {
		t.Fatalf("evicted task not resubmitted: evicts=%d submits=%d", evicts, submits)
	}
}
