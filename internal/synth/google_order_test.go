package synth

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// referenceGoogleTasks is the generator as it stood before the stable
// counting scatter: every job's tasks appended into one growing slice,
// then a comparison sort by (Submit, JobID, Index). It draws from the
// RNG in the same order as GenerateGoogleTasks.
func referenceGoogleTasks(cfg GoogleConfig, s *rng.Stream) []trace.Task {
	if cfg.Arrival.PerHour == 0 {
		cfg.Arrival = DefaultGoogleConfig(cfg.Horizon).Arrival
		cfg.Arrival.PerHour = cfg.JobsPerHour
	}
	arrivals := Arrivals(cfg.Arrival, cfg.Horizon, s.Child("arrivals"))
	body := s.Child("tasks")
	busyStart := int64(cfg.BusyFracStart * float64(cfg.Horizon))
	busyEnd := int64(cfg.BusyFracEnd * float64(cfg.Horizon))
	var tasks []trace.Task
	for jobIdx, submit := range arrivals {
		jobID := int64(jobIdx + 1)
		demand := 1.0
		if cfg.BusyDemandFactor > 1 && submit >= busyStart && submit < busyEnd {
			demand = cfg.BusyDemandFactor
		}
		u := body.Float64()
		switch {
		case u < pInteractive:
			tasks = append(tasks, makeGoogleTasks(body, jobID, submit, 1,
				googleJobPriorityWeights, interactiveLen, googleMemReq, interactiveBusy, demand, false)...)
		case u < pInteractive+pBatch:
			n := batchTaskCount(body, cfg.MaxTasksPerJob)
			if demand > 1 {
				n = int(float64(n) * demand)
				if cfg.MaxTasksPerJob > 0 && n > cfg.MaxTasksPerJob {
					n = cfg.MaxTasksPerJob
				}
			}
			tasks = append(tasks, makeGoogleTasks(body, jobID, submit, n,
				googleJobPriorityWeights, batchLen, googleMemReq, batchBusy, demand, false)...)
		default:
			n := serviceTaskCount(body, cfg.MaxTasksPerJob)
			tasks = append(tasks, makeGoogleTasks(body, jobID, submit, n,
				servicePriorityWeights, serviceLen, serviceMemReq, serviceBusy, demand, true)...)
		}
	}
	if cfg.WarmStart {
		tasks = append(tasks, warmServiceTasks(cfg, s.Child("warm"))...)
	}
	slices.SortFunc(tasks, func(a, b trace.Task) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		if a.JobID != b.JobID {
			return cmp.Compare(a.JobID, b.JobID)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return tasks
}

// TestGenerateMatchesSortReference pins the stable counting scatter to
// the append-and-sort generator it replaced, task for task, on the
// workload-cell shape, the warm-started sim-cell shape and a tiny park.
func TestGenerateMatchesSortReference(t *testing.T) {
	workload := DefaultGoogleConfig(86400)
	workload.MaxTasksPerJob = 150
	shapes := []struct {
		name string
		cfg  GoogleConfig
	}{
		{"workload-1d-cap150", workload},
		{"sim-200m-3d-warm", ScaledGoogleConfig(200, 3*86400)},
		{"tiny-4m-1d-warm", ScaledGoogleConfig(4, 86400)},
	}
	for _, sh := range shapes {
		for _, seed := range []uint64{1, 7, 2024} {
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				got := GenerateGoogleTasks(sh.cfg, rng.New(seed))
				want := referenceGoogleTasks(sh.cfg, rng.New(seed))
				if len(got) != len(want) {
					t.Fatalf("%d tasks, reference has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("task %d = %+v, reference %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestScatterBySubmitStable checks the scatter against a stable sort
// of the concatenated parts when many tasks share each Submit.
func TestScatterBySubmitStable(t *testing.T) {
	s := rng.New(5)
	var parts [][]trace.Task
	var flat []trace.Task
	for p := 0; p < 40; p++ {
		part := make([]trace.Task, s.IntN(6))
		for i := range part {
			part[i] = trace.Task{JobID: int64(p), Index: i, Submit: int64(s.IntN(9)) - 3}
		}
		parts = append(parts, part)
		flat = append(flat, part...)
	}
	slices.SortStableFunc(flat, func(a, b trace.Task) int { return cmp.Compare(a.Submit, b.Submit) })
	got := scatterBySubmit(parts)
	if !slices.Equal(got, flat) {
		t.Fatalf("scatter order differs from a stable sort by Submit:\n got %v\nwant %v", got, flat)
	}
	if scatterBySubmit(nil) != nil || scatterBySubmit([][]trace.Task{{}, nil}) != nil {
		t.Fatal("no tasks should scatter to nil")
	}
}

// referenceGoogleJobs is the per-job summary as it stood before the
// slot-indexed aggregation: one heap-allocated accumulator per job in a
// map, then a sort by (Submit, ID).
func referenceGoogleJobs(tasks []trace.Task) []trace.Job {
	type agg struct {
		submit, end    int64
		priority, user int
		count          int
		cpuTime        float64
		memSum         float64
	}
	jobs := make(map[int64]*agg)
	for _, t := range tasks {
		a := jobs[t.JobID]
		if a == nil {
			a = &agg{submit: t.Submit, end: t.Submit}
			jobs[t.JobID] = a
		}
		if t.Submit < a.submit {
			a.submit = t.Submit
		}
		if end := t.Submit + t.Duration; end > a.end {
			a.end = end
		}
		a.priority = t.Priority
		a.user = t.User
		a.count++
		a.cpuTime += t.CPUReq * t.Busy * float64(t.Duration)
		a.memSum += t.MemReq
	}
	out := make([]trace.Job, 0, len(jobs))
	for id, a := range jobs {
		out = append(out, trace.Job{
			ID: id, Submit: a.submit, End: a.end, Priority: a.priority, User: a.user,
			TaskCount: a.count, NumCPUs: 1, CPUTime: a.cpuTime, MemAvg: a.memSum / float64(a.count),
		})
	}
	slices.SortFunc(out, func(a, b trace.Job) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// TestGoogleJobsMatchReference requires bit-identical job summaries,
// float sums included, for generator output and for the same tasks in
// shuffled order (which takes the sort branch).
func TestGoogleJobsMatchReference(t *testing.T) {
	cfg := ScaledGoogleConfig(30, 86400)
	tasks := GenerateGoogleTasks(cfg, rng.New(11))
	shuffled := slices.Clone(tasks)
	rng.New(12).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, in := range map[string][]trace.Task{"generated": tasks, "shuffled": shuffled} {
		got, want := GoogleJobsFromTasks(in), referenceGoogleJobs(in)
		if len(got) != len(want) {
			t.Fatalf("%s: %d jobs, reference has %d", name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g != w || math.Float64bits(g.CPUTime) != math.Float64bits(w.CPUTime) ||
				math.Float64bits(g.MemAvg) != math.Float64bits(w.MemAvg) {
				t.Fatalf("%s: job %d = %+v, reference %+v", name, i, g, w)
			}
		}
	}
}
