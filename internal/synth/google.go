package synth

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GoogleConfig parameterises the Google data-center workload model.
// The defaults are calibrated to the numbers the paper reports:
//
//   - ~552 jobs/hour with fairness 0.94 (Table I), min 36 / max 1421,
//   - the Fig 2 priority histogram over 12 levels,
//   - ~80 % of jobs shorter than 1000 s (Fig 3),
//   - ~55 % of tasks under 10 min, ~90 % under 1 h, ~94 % under 3 h,
//     a mean task length of several hours and a maximum of 29 days
//     (Fig 4: joint ratio ≈ 6/94),
//   - jobs that mostly hold one processor with small CPU/memory
//     footprints (Fig 6).
type GoogleConfig struct {
	Horizon     int64   // trace length in seconds
	JobsPerHour float64 // mean submission rate
	// MaxTasksPerJob caps map-reduce style jobs so scaled-down runs
	// stay tractable. 0 means the calibrated default (2000).
	MaxTasksPerJob int
	Arrival        ArrivalConfig

	// Busy window: the paper observes an organically busier period
	// (days 21-25 of the month, Fig 10) where demand rises without the
	// submission rate changing. Tasks submitted inside the window
	// [BusyFracStart, BusyFracEnd) of the horizon run hotter and batch
	// jobs fan out wider by BusyDemandFactor.
	BusyFracStart, BusyFracEnd float64
	BusyDemandFactor           float64

	// WarmStart seeds the trace with the long-running service tasks
	// that would already be resident at time 0 (M/G/infinity warm
	// start): service arrivals are drawn over the 29 days before the
	// trace and survivors enter at t=0 with their residual duration.
	// Without it a short simulation under-reports memory usage, because
	// the resident service population ramps for days.
	WarmStart bool
}

// DefaultGoogleConfig returns the calibration used for the paper
// reproduction at the given horizon (seconds).
func DefaultGoogleConfig(horizon int64) GoogleConfig {
	return GoogleConfig{
		Horizon:        horizon,
		JobsPerHour:    552,
		MaxTasksPerJob: 2000,
		// Days 21-25 of a 30-day trace.
		BusyFracStart:    0.70,
		BusyFracEnd:      0.83,
		BusyDemandFactor: 1.9,
		Arrival: ArrivalConfig{
			PerHour:     552,
			DiurnalAmp:  0.18,
			LogSigma:    0.17,
			SpikeProb:   0.01,
			SpikeFactor: 2.3,
			RampHours:   3,
		},
	}
}

// Job type mixture. Interactive jobs are the web-service requests the
// paper's introduction motivates; batch jobs are map-reduce style with
// many short tasks; service jobs are the long-running tail that gives
// the task-length distribution its 6/94 mass-count disparity.
const (
	pInteractive = 0.71
	pBatch       = 0.25
	pService     = 0.04
)

// Priority weights for jobs, from the Fig 2(a) histogram (units of
// 10^4 jobs; levels 8-12 are below the labelled resolution).
var googleJobPriorityWeights = []float64{
	16.0, 11.3, 17.0, 13.0, // low (1-4)
	0.9, 4.0, 4.7, 0.5, // middle (5-8)
	0.35, 0.25, 0.15, 0.1, // high (9-12)
}

// servicePriorityWeights skews long-running service jobs toward the
// middle/high levels ("production" priorities in the real trace).
var servicePriorityWeights = []float64{
	0.3, 0.3, 0.3, 0.3,
	0.8, 1, 1, 0.8,
	6, 5, 4, 3,
}

// Task-length distributions per job type (seconds).
var (
	interactiveLen = dist.Clamped{
		Dist: dist.Exponential{Rate: 1.0 / 280}, Lo: 5, Hi: 3600,
	}
	batchLen = dist.Clamped{
		Dist: dist.LogNormal{Mu: 6.2, Sigma: 1.0}, // median ~490 s
		Lo:   20, Hi: 6 * 3600,
	}
	// Long-running services: three bands spanning 3 h .. 29 d.
	serviceLen = dist.Mixture{Components: []dist.Component{
		{Weight: 0.45, Dist: dist.BoundedPareto{L: 3 * 3600, H: 86400, Alpha: 1.1}},
		{Weight: 0.33, Dist: dist.BoundedPareto{L: 86400, H: 7 * 86400, Alpha: 1.0}},
		{Weight: 0.22, Dist: dist.BoundedPareto{L: 7 * 86400, H: 29 * 86400, Alpha: 1.2}},
	}}
)

// Resource requests (normalised to the largest machine, as in the
// released trace).
var (
	googleCPUReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -4.4, Sigma: 0.6}, Lo: 0.002, Hi: 0.1,
	}
	googleMemReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -6.5, Sigma: 0.7}, Lo: 0.0005, Hi: 0.1,
	}
	// Services hold noticeably more memory.
	serviceMemReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -4.25, Sigma: 0.6}, Lo: 0.002, Hi: 0.15,
	}
)

// userPopulation is the Zipf user model: "each job corresponds to one
// user", with a few heavy users dominating submissions.
var userPopulation = dist.NewZipf(400, 1.3)

// Placement-constraint probabilities per job type (Section II: tasks
// carry customised constraints; Sharma et al. study their impact).
// Constrained tasks demand at least a mid-class (0.5) or top-class
// (1.0) CPU machine.
func sampleConstraint(s *rng.Stream, service bool) float64 {
	if service {
		switch {
		case s.Bool(0.10):
			return 1.0
		case s.Bool(0.30):
			return 0.5
		}
		return 0
	}
	if s.Bool(0.10) {
		return 0.5
	}
	return 0
}

// serviceTaskCount draws the replica count of a service job.
func serviceTaskCount(s *rng.Stream, cap int) int {
	n := 1 + s.IntN(12)
	if cap > 0 && n > cap {
		n = cap
	}
	return n
}

// CPU-busy fractions per job type: batch tasks run hot, interactive
// requests are moderate, long-running services idle on their CPU
// reservation while pinning memory — this asymmetry is what makes the
// simulated cluster's memory usage exceed its CPU usage (Fig 11 vs 12).
var (
	interactiveBusy = dist.Uniform{Lo: 0.40, Hi: 0.90}
	batchBusy       = dist.Uniform{Lo: 0.55, Hi: 1.00}
	serviceBusy     = dist.Uniform{Lo: 0.15, Hi: 0.50}
)

// batchTaskCount draws the number of tasks in a batch job: median
// around 8, heavy tail into the thousands so the task/job ratio
// reaches the trace's ~38.
func batchTaskCount(s *rng.Stream, cap int) int {
	var n int
	switch {
	case s.Bool(0.55):
		n = 2 + s.IntN(14) // small fan-out
	case s.Bool(0.75):
		n = 16 + s.IntN(112) // medium map-reduce
	default:
		// Heavy tail: hundreds to thousands of mappers.
		n = int(dist.BoundedPareto{L: 128, H: 8000, Alpha: 0.9}.Sample(s))
	}
	if cap > 0 && n > cap {
		n = cap
	}
	if n < 2 {
		n = 2
	}
	return n
}

// GenerateGoogleTasks generates the full task workload: every task
// carries its job, submission time, priority, resource request and
// intrinsic duration. Tasks are ordered by (Submit, JobID, Index).
//
// Jobs are drawn in arrival order and each keeps its own slice; the
// warm-start jobs come last. That generation order is already ascending
// (JobID, Index): regular jobs are numbered 1, 2, ... in arrival order,
// warm-start jobs warmJobBase+k after them, and a job's tasks ascend by
// Index. A stable counting scatter keyed by Submit therefore yields
// exactly the (Submit, JobID, Index) order in linear time, with no
// comparison sort of 80-byte tasks. Besides the tasks themselves it
// holds one int32 count per second of submit range: 4 B/s, about 1 MB
// for a 3-day horizon and 10 MB for 29 days.
func GenerateGoogleTasks(cfg GoogleConfig, s *rng.Stream) []trace.Task {
	if cfg.Arrival.PerHour == 0 {
		cfg.Arrival = DefaultGoogleConfig(cfg.Horizon).Arrival
		cfg.Arrival.PerHour = cfg.JobsPerHour
	}
	arrivals := Arrivals(cfg.Arrival, cfg.Horizon, s.Child("arrivals"))
	body := s.Child("tasks")
	busyStart := int64(cfg.BusyFracStart * float64(cfg.Horizon))
	busyEnd := int64(cfg.BusyFracEnd * float64(cfg.Horizon))
	jobs := make([][]trace.Task, 0, len(arrivals))
	for jobIdx, submit := range arrivals {
		jobID := int64(jobIdx + 1)
		demand := 1.0
		if cfg.BusyDemandFactor > 1 && submit >= busyStart && submit < busyEnd {
			demand = cfg.BusyDemandFactor
		}
		u := body.Float64()
		switch {
		case u < pInteractive:
			jobs = append(jobs, makeGoogleTasks(body, jobID, submit, 1,
				googleJobPriorityWeights, interactiveLen, googleMemReq, interactiveBusy, demand, false))
		case u < pInteractive+pBatch:
			n := batchTaskCount(body, cfg.MaxTasksPerJob)
			if demand > 1 {
				n = int(float64(n) * demand)
				if cfg.MaxTasksPerJob > 0 && n > cfg.MaxTasksPerJob {
					n = cfg.MaxTasksPerJob
				}
			}
			jobs = append(jobs, makeGoogleTasks(body, jobID, submit, n,
				googleJobPriorityWeights, batchLen, googleMemReq, batchBusy, demand, false))
		default:
			n := serviceTaskCount(body, cfg.MaxTasksPerJob)
			jobs = append(jobs, makeGoogleTasks(body, jobID, submit, n,
				servicePriorityWeights, serviceLen, serviceMemReq, serviceBusy, demand, true))
		}
	}
	if cfg.WarmStart {
		jobs = append(jobs, warmServiceTasks(cfg, s.Child("warm")))
	}
	return scatterBySubmit(jobs)
}

// scatterBySubmit concatenates parts into one exact-size slice ordered
// by Submit, keeping the concatenation order among equal Submits: a
// counting sort with one int32 counter per second between the smallest
// and largest Submit. It returns nil when parts hold no task.
func scatterBySubmit(parts [][]trace.Task) []trace.Task {
	n := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, p := range parts {
		n += len(p)
		for i := range p {
			lo = min(lo, p[i].Submit)
			hi = max(hi, p[i].Submit)
		}
	}
	if n == 0 {
		return nil
	}
	// next[k] is first the count of Submit == lo+k, then, after the
	// exclusive prefix sum, the next free slot for that Submit.
	next := make([]int32, hi-lo+1)
	for _, p := range parts {
		for i := range p {
			next[p[i].Submit-lo]++
		}
	}
	var sum int32
	for k, c := range next {
		next[k] = sum
		sum += c
	}
	out := make([]trace.Task, n)
	for _, p := range parts {
		for i := range p {
			k := p[i].Submit - lo
			out[next[k]] = p[i]
			next[k]++
		}
	}
	return out
}

// warmJobBase offsets the synthetic job IDs of warm-start service jobs
// so they never collide with regular arrivals.
const warmJobBase = int64(1) << 40

// warmServiceTasks draws the service jobs that arrived during the 29
// days before the trace and are still running at t=0, entering with
// their residual durations.
func warmServiceTasks(cfg GoogleConfig, s *rng.Stream) []trace.Task {
	const lookback = 29 * 86400
	serviceRate := cfg.Arrival.PerHour * pService // service jobs per hour
	arrivals := Arrivals(ArrivalConfig{PerHour: serviceRate}, lookback, s.Child("arrivals"))
	body := s.Child("tasks")
	var out []trace.Task
	for k, a := range arrivals {
		submit := a - lookback // negative: before the trace epoch
		n := serviceTaskCount(body, cfg.MaxTasksPerJob)
		ts := makeGoogleTasks(body, warmJobBase+int64(k), submit, n,
			servicePriorityWeights, serviceLen, serviceMemReq, serviceBusy, 1, true)
		for _, t := range ts {
			residual := t.Submit + t.Duration // time remaining past t=0
			if residual <= 0 {
				continue // finished before the trace began
			}
			t.Submit = 0
			t.Duration = residual
			out = append(out, t)
		}
	}
	return out
}

func makeGoogleTasks(s *rng.Stream, jobID int64, submit int64, n int,
	prioWeights []float64, length dist.Dist, memReq dist.Dist,
	busy dist.Dist, demand float64, service bool) []trace.Task {
	priority := s.Pick(prioWeights) + 1
	user := int(userPopulation.Sample(s))
	constraint := sampleConstraint(s, service)
	out := make([]trace.Task, n)
	for i := range out {
		d := int64(length.Sample(s))
		if d < 1 {
			d = 1
		}
		b := busy.Sample(s) * demand
		if b > 1 {
			b = 1
		}
		// Tasks within a job are submitted in a sequential order with
		// small staggers (Section III: "multiple tasks submitted in a
		// sequential order").
		stagger := int64(0)
		if i > 0 {
			stagger = int64(i) * int64(1+s.IntN(3))
		}
		out[i] = trace.Task{
			JobID:       jobID,
			Index:       i,
			Submit:      submit + stagger,
			Priority:    priority,
			User:        user,
			MinCPUClass: constraint,
			CPUReq:      googleCPUReq.Sample(s),
			MemReq:      memReq.Sample(s),
			Busy:        b,
			Duration:    d,
		}
	}
	return out
}

// GoogleJobsFromTasks summarises tasks into jobs assuming immediate
// scheduling (the paper observes the pending queue is essentially
// always empty, so submission-to-completion equals the span of the
// tasks). CPUTime integrates each task's CPU request over its
// duration; memory is the mean task request. A Google task takes (a
// fraction of) one core, so NumCPUs is 1. Jobs come out ordered by
// (Submit, ID).
func GoogleJobsFromTasks(tasks []trace.Task) []trace.Job {
	// Jobs aggregate in first-seen order; slot maps a job ID to its
	// index in out. Each job's sums accumulate in task order.
	slot := make(map[int64]int32)
	var out []trace.Job
	for i := range tasks {
		t := &tasks[i]
		k, ok := slot[t.JobID]
		if !ok {
			k = int32(len(out))
			slot[t.JobID] = k
			out = append(out, trace.Job{ID: t.JobID, Submit: t.Submit, End: t.Submit, NumCPUs: 1})
		}
		j := &out[k]
		if t.Submit < j.Submit {
			j.Submit = t.Submit
		}
		if end := t.Submit + t.Duration; end > j.End {
			j.End = end
		}
		j.Priority = t.Priority
		j.User = t.User
		j.TaskCount++
		j.CPUTime += t.CPUReq * t.Busy * float64(t.Duration)
		j.MemAvg += t.MemReq // the sum until the division below
	}
	for k := range out {
		out[k].MemAvg /= float64(out[k].TaskCount)
	}
	// Tasks in (Submit, JobID, Index) order, as GenerateGoogleTasks
	// emits them, leave the jobs first-seen in (Submit, ID) order.
	byStart := func(a, b trace.Job) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return cmp.Compare(a.ID, b.ID)
	}
	if !slices.IsSortedFunc(out, byStart) {
		slices.SortFunc(out, byStart)
	}
	return out
}

// FullScaleMachines is the machine count of the real trace.
const FullScaleMachines = 12500

// utilizationPark is the park size at which 552 jobs/hour of our
// calibrated workload reproduces the trace's utilisation levels
// (~35 % CPU, ~60 % memory). It differs from FullScaleMachines because
// our synthetic per-task demands are calibrated to the paper's job
// statistics, not to Google's undisclosed absolute demand volume.
const utilizationPark = 525

// ScaledJobsPerHour returns the submission rate that keeps the
// simulated cluster at the trace's utilisation level for a park of the
// given size.
func ScaledJobsPerHour(machines int) float64 {
	return 552 * float64(machines) / utilizationPark
}

// ScaledGoogleConfig returns the default calibration with the
// submission rate scaled to the park size. The widest map-reduce jobs
// are capped proportionally: at full scale a 2000-task job is a tiny
// fraction of the cluster, and keeping that ratio preserves the
// paper's empty-pending-queue property on small parks.
func ScaledGoogleConfig(machines int, horizon int64) GoogleConfig {
	cfg := DefaultGoogleConfig(horizon)
	cfg.JobsPerHour = ScaledJobsPerHour(machines)
	cfg.Arrival.PerHour = cfg.JobsPerHour
	maxTasks := 2000 * machines / utilizationPark
	if maxTasks < 40 {
		maxTasks = 40
	}
	if maxTasks > 2000 {
		maxTasks = 2000
	}
	cfg.MaxTasksPerJob = maxTasks
	cfg.WarmStart = true
	return cfg
}

// GoogleMachines builds a heterogeneous machine park with the
// normalised capacity classes visible in Fig 7: CPU in {0.25, 0.5, 1}
// and memory in {0.25, 0.5, 0.75, 1}; page-cache capacity is 1 for all
// hosts.
func GoogleMachines(n int, s *rng.Stream) []trace.Machine {
	cpuClasses := dist.Empirical{
		Values:  []float64{0.25, 0.5, 1.0},
		Weights: []float64{0.31, 0.54, 0.15},
	}
	memClasses := dist.Empirical{
		Values:  []float64{0.25, 0.5, 0.75, 1.0},
		Weights: []float64{0.30, 0.49, 0.12, 0.09},
	}
	out := make([]trace.Machine, n)
	for i := range out {
		out[i] = trace.Machine{
			ID:        i,
			CPU:       cpuClasses.Sample(s),
			Memory:    memClasses.Sample(s),
			PageCache: 1,
		}
	}
	return out
}
