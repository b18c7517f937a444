package cluster

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// propertyConfig draws one random simulation: 5-60 machines, a 6-48 h
// horizon, any policy, preemption and churn each on or off, a nonzero
// UpdateProb, and now and then a shuffled task slice so arrival order
// is not already sorted by Submit.
func propertyConfig(seed uint64) (Config, []trace.Task, string) {
	s := rng.New(seed).Child("property")
	n := 5 + s.IntN(56)
	horizon := int64(6+s.IntN(43)) * 3600
	cfg := DefaultConfig(synth.GoogleMachines(n, s.Child("machines")), horizon)
	cfg.Placement = Policy(s.IntN(3))
	cfg.Preemption = s.Bool(0.7)
	if s.Bool(0.5) {
		cfg.ChurnMTBF = int64(s.Range(2, 24) * 3600)
		cfg.ChurnDowntime = int64(s.Range(0.1, 2) * 3600)
	}
	cfg.UpdateProb = s.Range(0.01, 0.2)
	tasks := synth.GenerateGoogleTasks(synth.ScaledGoogleConfig(n, horizon), s.Child("tasks"))
	shuffled := s.Bool(0.15)
	if shuffled {
		s.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	}
	desc := fmt.Sprintf("%d machines, %d h, %v, preempt=%v, churn=%v, update=%.2f, shuffled=%v, %d tasks",
		n, horizon/3600, cfg.Placement, cfg.Preemption, cfg.ChurnMTBF > 0, cfg.UpdateProb, shuffled, len(tasks))
	return cfg, tasks, desc
}

// TestSimulatorProperties checks conservation, capacity and ordering
// invariants of the event stream over randomized configurations, and
// that the indexed path (with its retry skip) matches the reference
// path byte for byte.
func TestSimulatorProperties(t *testing.T) {
	const configs = 50
	for i := range configs {
		seed := uint64(9000 + i)
		cfg, tasks, desc := propertyConfig(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Log(desc)
			res, err := Simulate(cfg, tasks, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkEventStream(t, cfg, tasks, res)

			refCfg := cfg
			refCfg.ReferencePlacement = true
			ref, err := Simulate(refCfg, tasks, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Events, res.Events) {
				t.Fatal("events differ from the reference path")
			}
			if !reflect.DeepEqual(ref.Machines, res.Machines) || !reflect.DeepEqual(ref.Pending, res.Pending) {
				t.Fatal("series differ from the reference path")
			}
			if !reflect.DeepEqual(ref.MachineEvents, res.MachineEvents) {
				t.Fatal("machine events differ from the reference path")
			}
			if !reflect.DeepEqual(ref.Stats, res.Stats) {
				t.Fatalf("stats differ:\nreference %+v\nindexed   %+v", ref.Stats, res.Stats)
			}
		})
	}
}

type taskKey struct {
	job   int64
	index int
}

// checkEventStream replays res.Events against the task slice.
func checkEventStream(t *testing.T, cfg Config, tasks []trace.Task, res *Result) {
	t.Helper()
	byKey := make(map[taskKey]*trace.Task, len(tasks))
	var wantSubmits []taskKey // first-attempt SUBMITs in (Submit, input position) order
	for i := range tasks {
		tk := &tasks[i]
		byKey[taskKey{tk.JobID, tk.Index}] = tk
		if tk.Submit < cfg.Horizon {
			wantSubmits = append(wantSubmits, taskKey{tk.JobID, tk.Index})
		}
	}
	slices.SortStableFunc(wantSubmits, func(a, b taskKey) int {
		return cmp.Compare(byKey[a].Submit, byKey[b].Submit)
	})

	const (
		pending = iota + 1
		running
		ended     // terminal: FINISH, KILL or LOST
		retryable // terminal: FAIL or EVICT, which may be resubmitted
	)
	state := make(map[taskKey]int, len(tasks))
	cpu := make([]float64, len(cfg.Machines))
	mem := make([]float64, len(cfg.Machines))
	var firstSubmits []taskKey
	var last int64
	for i, e := range res.Events {
		k := taskKey{e.JobID, e.TaskIndex}
		tk := byKey[k]
		if tk == nil {
			t.Fatalf("event %d for unknown task %+v", i, e)
		}
		if e.Type != trace.EventUpdate {
			if e.Time < last {
				t.Fatalf("event %d at %d after an event at %d: %+v", i, e.Time, last, e)
			}
			last = e.Time
		}
		switch st := state[k]; {
		case e.Type == trace.EventSubmit:
			switch st {
			case 0:
				if e.Time != tk.Submit {
					t.Fatalf("event %d: first SUBMIT at %d, task submits at %d", i, e.Time, tk.Submit)
				}
				firstSubmits = append(firstSubmits, k)
			case retryable:
			default:
				t.Fatalf("event %d: SUBMIT while the task is still live: %+v", i, e)
			}
			state[k] = pending
		case e.Type == trace.EventSchedule:
			if st != pending {
				t.Fatalf("event %d: SCHEDULE of a task that is not pending: %+v", i, e)
			}
			state[k] = running
			cpu[e.Machine] += tk.CPUReq
			mem[e.Machine] += tk.MemReq
			m := cfg.Machines[e.Machine]
			if cpu[e.Machine] > m.CPU+1e-9 || mem[e.Machine] > m.Memory+1e-9 {
				t.Fatalf("event %d: machine %d reserves cpu %v mem %v over capacity %v/%v",
					i, e.Machine, cpu[e.Machine], mem[e.Machine], m.CPU, m.Memory)
			}
		case e.Type == trace.EventUpdate:
			if st != running {
				t.Fatalf("event %d: UPDATE of a task that is not running: %+v", i, e)
			}
		case e.Type.Terminal():
			if st != running {
				t.Fatalf("event %d: terminal event of a task that is not running: %+v", i, e)
			}
			state[k] = ended
			if e.Type == trace.EventFail || e.Type == trace.EventEvict {
				state[k] = retryable
			}
			cpu[e.Machine] -= tk.CPUReq
			mem[e.Machine] -= tk.MemReq
			if cpu[e.Machine] < -1e-9 || mem[e.Machine] < -1e-9 {
				t.Fatalf("event %d: machine %d reservation went negative", i, e.Machine)
			}
		default:
			t.Fatalf("event %d: unexpected type %v", i, e.Type)
		}
	}
	if !slices.Equal(firstSubmits, wantSubmits) {
		t.Fatalf("first-attempt SUBMITs out of (Submit, input position) order: %d rows, want %d",
			len(firstSubmits), len(wantSubmits))
	}
	stillPending := 0
	for _, st := range state {
		if st == pending {
			stillPending++
		}
	}
	if stillPending != res.Stats.NeverScheduled {
		t.Fatalf("%d tasks pending at the horizon, Stats.NeverScheduled = %d",
			stillPending, res.Stats.NeverScheduled)
	}
}
