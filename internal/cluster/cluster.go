// Package cluster implements a discrete-event simulator of the Google
// data-center scheduling model described in Section II of the paper:
// heterogeneous machines, a priority scheduler (high priority first,
// FCFS within a priority, preemption of lower-priority work), task
// failure/kill/loss injection with resubmission, and 5-minute usage
// sampling per machine.
//
// The simulator consumes the task workload produced by internal/synth
// (or any []trace.Task) and returns the per-machine usage series and
// event tallies that the Section IV host-load analyses consume, plus,
// on request, the full event stream.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Policy selects the placement heuristic.
type Policy int

// Placement policies. Balanced (worst-fit) mirrors the paper's "use
// the best resources first ... reaching an approximate load balancing
// situation"; BestFit and Random exist for the ablation benches.
const (
	Balanced Policy = iota
	BestFit
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Balanced:
		return "balanced"
	case BestFit:
		return "best-fit"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// OutcomeMix is the probability of each terminal event for an
// execution attempt. The default reproduces the paper's completion
// statistics: 59.2% of completion events are abnormal, of which 50%
// fail and 30.7% are kills.
type OutcomeMix struct {
	Finish, Fail, Kill, Evict, Lost float64
}

// validate rejects negative probabilities and totals above 1 (the
// remainder, if any, is folded into Lost by drawOutcome's default arm,
// so a total below 1 is legal).
func (m OutcomeMix) validate() error {
	for _, p := range []float64{m.Finish, m.Fail, m.Kill, m.Evict, m.Lost} {
		if p < 0 {
			return fmt.Errorf("cluster: negative outcome probability %v", p)
		}
	}
	if total := m.Finish + m.Fail + m.Kill + m.Evict + m.Lost; total > 1+1e-9 {
		return fmt.Errorf("cluster: outcome probabilities sum to %v > 1", total)
	}
	return nil
}

// DefaultOutcomeMix returns the calibrated mix.
func DefaultOutcomeMix() OutcomeMix {
	return OutcomeMix{
		Finish: 0.425,
		Fail:   0.296, // 0.592 * 0.50
		Kill:   0.182, // 0.592 * 0.307
		Evict:  0.070,
		Lost:   0.027,
	}
}

// Config parameterises a simulation run.
type Config struct {
	Machines     []trace.Machine
	Horizon      int64 // seconds simulated
	SamplePeriod int64 // usage sampling period; 0 means 300 s (5 min)

	Placement  Policy
	Preemption bool // allow high-priority tasks to evict lower ones

	// ReferencePlacement routes place()/preemptFor() through the
	// original linear machine scan instead of the capacity-indexed
	// fast path. Debug flag: both paths produce byte-identical event
	// streams (asserted by TestReferencePlacementByteIdentical); the
	// flag exists so that equivalence stays independently testable.
	ReferencePlacement bool

	Outcomes OutcomeMix

	// Resubmission of failed/evicted tasks (step 6 of Fig 1).
	MaxRetries  int
	RetryDelay  int64   // seconds before a resubmission
	FailRetryP  float64 // probability a failed task is resubmitted
	EvictRetryP float64 // probability an evicted task is resubmitted

	// UsageNoise is the std-dev of the per-window multiplicative CPU
	// noise of each running task; this is the source of the Google
	// host-load jitter the paper measures in Fig 13.
	UsageNoise float64

	// BurstProb and BurstMax model rare machine-wide CPU demand bursts
	// (co-located antagonists, cron storms): with probability BurstProb
	// per machine per sampling window, every task's CPU demand in that
	// window is multiplied by a factor in (1.5, BurstMax). Bursts are
	// what push each machine's maximum observed CPU to its capacity
	// over a month-long trace (Fig 7a). Zero disables bursts.
	BurstProb float64
	BurstMax  float64

	// UpdateProb is the per-attempt probability that the user tunes the
	// task's constraints mid-run (Fig 1 step 3), emitting an UPDATE
	// event. Purely observational: the resource profile is unchanged.
	UpdateProb float64

	// Machine churn: machines fail with exponential inter-failure
	// times of mean ChurnMTBF seconds and stay offline for an
	// exponential downtime of mean ChurnDowntime seconds. A failing
	// machine evicts everything running on it (the real trace's
	// machine_events REMOVE rows). Zero MTBF disables churn.
	ChurnMTBF     int64
	ChurnDowntime int64

	// EmitTrace records the task event stream (Result.Events) and the
	// per-attempt usage samples (Result.Usage). Both grow with the
	// trace, and the analyses need only the per-machine and run-level
	// tallies every run keeps, so they are for trace export and
	// event-level tests.
	EmitTrace bool

	// Metrics, when non-nil, receives the run's operational counters
	// (events dispatched, machine scans, queue-depth samples, per-type
	// event counts). Purely observational: the simulation consumes no
	// randomness and takes no decisions based on it, so results are
	// byte-identical with or without a registry attached.
	Metrics *obs.Registry
}

// DefaultConfig returns the calibrated simulation parameters for the
// given machine park and horizon.
func DefaultConfig(machines []trace.Machine, horizon int64) Config {
	return Config{
		Machines:     machines,
		Horizon:      horizon,
		SamplePeriod: 300,
		Placement:    Balanced,
		Preemption:   true,
		Outcomes:     DefaultOutcomeMix(),
		MaxRetries:   2,
		RetryDelay:   30,
		FailRetryP:   0.55,
		EvictRetryP:  0.90,
		UsageNoise:   0.85,
		BurstProb:    0.001,
		BurstMax:     3.5,
		UpdateProb:   0.02,
	}
}

// MachineSeries holds one machine's sampled load signals. CPU and Mem
// are split by the paper's three priority groups; the total is the sum.
type MachineSeries struct {
	Machine trace.Machine

	CPUByGroup [3]*timeseries.Series // low / middle / high
	MemByGroup [3]*timeseries.Series

	MemAssigned *timeseries.Series
	PageCache   *timeseries.Series
	Running     *timeseries.Series // mean number of running tasks

	// Fig 8 tallies of the task events on this machine: cumulative
	// FINISH and abnormal (EVICT, FAIL, KILL, LOST) completions at the
	// end of each sampling window, and the count of each event type.
	Finished    *timeseries.Series
	Abnormal    *timeseries.Series
	EventCounts [trace.NumEventTypes]int
}

// CPU returns the total CPU usage series (all priorities), normalised
// by nothing — divide by Machine.CPU for a relative load level.
func (m *MachineSeries) CPU() *timeseries.Series { return sumSeries(m.CPUByGroup[:]) }

// Mem returns the total consumed-memory series.
func (m *MachineSeries) Mem() *timeseries.Series { return sumSeries(m.MemByGroup[:]) }

// CPUGroups returns the usage of the groups at or above the given
// group (e.g. HighPriority → high only; MiddlePriority → mid+high).
func (m *MachineSeries) CPUGroups(min trace.PriorityGroup) *timeseries.Series {
	return sumSeries(m.CPUByGroup[int(min):])
}

// MemGroups is the memory analogue of CPUGroups.
func (m *MachineSeries) MemGroups(min trace.PriorityGroup) *timeseries.Series {
	return sumSeries(m.MemByGroup[int(min):])
}

func sumSeries(ss []*timeseries.Series) *timeseries.Series {
	if len(ss) == 0 {
		return nil
	}
	out := &timeseries.Series{
		Start:  ss[0].Start,
		Step:   ss[0].Step,
		Values: append([]float64(nil), ss[0].Values...),
	}
	for _, s := range ss[1:] {
		for i := range out.Values {
			out.Values[i] += s.Values[i]
		}
	}
	return out
}

// Stats aggregates run-level counters.
type Stats struct {
	TasksSubmitted  int
	Attempts        int // execution attempts (schedules)
	EventCounts     map[trace.EventType]int
	Preemptions     int
	NeverScheduled  int // tasks still pending at the horizon
	MachineFailures int // churn events (machines going offline)
}

// AbnormalFraction returns the share of terminal events that are
// abnormal (the paper reports 59.2%).
func (s Stats) AbnormalFraction() float64 {
	var term, abn int
	for e, n := range s.EventCounts {
		if e.Terminal() {
			term += n
			if e.Abnormal() {
				abn += n
			}
		}
	}
	if term == 0 {
		return 0
	}
	return float64(abn) / float64(term)
}

// MachineEvent is one churn transition (the machine_events ADD/REMOVE
// rows of the real trace).
type MachineEvent struct {
	Time    int64
	Machine int
	Up      bool // true = machine (re)joined, false = went offline
}

// Result is the simulator output.
type Result struct {
	Config        Config
	Events        []trace.TaskEvent   // only when Config.EmitTrace
	Usage         []trace.UsageSample // only when Config.EmitTrace
	Machines      []*MachineSeries
	MachineEvents []MachineEvent     // churn transitions, if any
	Pending       *timeseries.Series // cluster-wide mean pending tasks
	Stats         Stats
}

// ---------------------------------------------------------------------------
// engine internals

type runningTask struct {
	task    *trace.Task
	machine int
	start   int64
	end     int64 // scheduled completion time
	outcome trace.EventType
	retries int
	// Per-attempt resource profile.
	cpuUse   float64 // mean CPU actually consumed
	memUse   float64 // consumed memory
	cacheUse float64
	updateAt int64 // pending UPDATE event time (0 = none)
	runIdx   int32 // position in machineState.running (swap-remove bookkeeping)
	live     bool  // not yet settled; false once evicted or completed
}

type pendingTask struct {
	task     *trace.Task
	retries  int
	enqueued int64 // when the task entered the pending queue
	// failedAt is sim.raises when place and the preemption prefilter
	// last rejected the task; 0 means it has not failed yet.
	failedAt uint64
}

type eventKind int

const (
	evArrive eventKind = iota
	evComplete
	evMachineDown
	evMachineUp
)

type simEvent struct {
	time    int64
	seq     int64
	kind    eventKind
	pend    pendingTask  // evArrive
	run     *runningTask // evComplete
	machine int          // evMachineDown / evMachineUp
}

// eventQueue is a 4-ary min-heap of simEvents ordered by (time, seq).
// It replaces container/heap: the concrete element type keeps push and
// pop free of the interface boxing that copies every simEvent through
// an `any` on both ends, and the flatter 4-ary layout halves the tree
// depth so a sift touches fewer cache lines. (time, seq) is a strict
// total order — seq is unique per event — so any correct heap yields
// the identical pop sequence and event replay stays byte-identical to
// the container/heap implementation it replaces. It holds completions,
// resubmissions and churn; seeded arrivals come from sim.arrivals
// (see sim.next).
type eventQueue struct {
	evs []simEvent
}

func eventBefore(a, b *simEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.evs) }

func (q *eventQueue) push(e simEvent) {
	q.evs = append(q.evs, e)
	i := len(q.evs) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(&q.evs[i], &q.evs[p]) {
			break
		}
		q.evs[i], q.evs[p] = q.evs[p], q.evs[i]
		i = p
	}
}

func (q *eventQueue) pop() simEvent {
	top := q.evs[0]
	n := len(q.evs) - 1
	q.evs[0] = q.evs[n]
	q.evs[n] = simEvent{} // drop the *runningTask reference
	q.evs = q.evs[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if eventBefore(&q.evs[c], &q.evs[best]) {
				best = c
			}
		}
		if !eventBefore(&q.evs[best], &q.evs[i]) {
			break
		}
		q.evs[i], q.evs[best] = q.evs[best], q.evs[i]
		i = best
	}
	return top
}

type machineState struct {
	m        trace.Machine
	freeCPU  float64 // unreserved CPU (requests)
	freeMem  float64
	running  []*runningTask // unordered; runIdx gives O(1) removal
	cacheAff float64        // per-machine page-cache affinity (drives Fig 7d bimodality)
	down     bool           // offline due to churn

	// Per-priority tallies of ms.running: task count and summed CPU and
	// memory requests. They let preemptFor reject, without walking the
	// running list, a machine whose lower-priority work could never
	// free enough room.
	prioN    [trace.MaxPriority + 1]int32
	prioCPU  [trace.MaxPriority + 1]float64
	prioMem  [trace.MaxPriority + 1]float64
	prioMask uint16 // bit p set iff prioN[p] > 0

	// Event tallies behind MachineSeries.Finished, Abnormal and
	// EventCounts; finished and abnormal count completions per
	// sampling window until result() accumulates them.
	evCounts           [trace.NumEventTypes]int
	finished, abnormal []float64
}

func (ms *machineState) addRunning(rt *runningTask) {
	rt.runIdx = int32(len(ms.running))
	ms.running = append(ms.running, rt)
	p := rt.task.Priority
	ms.prioN[p]++
	ms.prioMask |= 1 << p
	ms.prioCPU[p] += rt.task.CPUReq
	ms.prioMem[p] += rt.task.MemReq
}

// removeRunning swap-deletes rt. Storage order is irrelevant to the
// results: every consumer that iterates ms.running sorts by a total
// order before acting (see tryPreempt, machineDown, finishAccounting).
func (ms *machineState) removeRunning(rt *runningTask) {
	last := len(ms.running) - 1
	moved := ms.running[last]
	ms.running[rt.runIdx] = moved
	moved.runIdx = rt.runIdx
	ms.running[last] = nil
	ms.running = ms.running[:last]
	p := rt.task.Priority
	if ms.prioN[p]--; ms.prioN[p] == 0 {
		// An empty bucket is exactly zero, so rounding error never
		// outlives the tasks that caused it.
		ms.prioCPU[p], ms.prioMem[p] = 0, 0
		ms.prioMask &^= 1 << p
	} else {
		ms.prioCPU[p] -= rt.task.CPUReq
		ms.prioMem[p] -= rt.task.MemReq
	}
}

// preemptSlack is how far below a request the prefilter's estimate of
// a machine's clearable capacity may fall before the machine is
// skipped. The bucket sums differ from tryPreempt's own sum only by
// float64 rounding: requests are at most 1, so each add or subtract
// errs by at most ~1.1e-16, and even 1e6 operations on one bucket
// between resets stay near 1e-10. A slack of 1e-9 therefore only ever
// skips machines the exact check would also reject.
const preemptSlack = 1e-9

// mayClearFor reports whether evicting ms's work below priority prio
// could possibly free cpu and mem; false means tryPreempt would fail.
func (ms *machineState) mayClearFor(prio int, cpu, mem float64) bool {
	lower := ms.prioMask & (1<<prio - 1)
	if lower == 0 {
		return false
	}
	freeCPU, freeMem := ms.freeCPU, ms.freeMem
	for ; lower != 0; lower &= lower - 1 {
		p := bits.TrailingZeros16(lower)
		freeCPU += ms.prioCPU[p]
		freeMem += ms.prioMem[p]
	}
	return freeCPU >= cpu-preemptSlack && freeMem >= mem-preemptSlack
}

// simMetrics caches the registry metrics the event loop touches.
// Every field is nil when Config.Metrics is nil; the obs methods are
// nil-safe, so the hot path carries no "is observability on?" branch.
type simMetrics struct {
	events *obs.Counter // cluster.events_dispatched
	// scans counts machines examined during placement: full-scan
	// iterations on the reference/Random paths, tree leaves whose
	// feasibility was evaluated on the indexed path.
	scans         *obs.Counter // cluster.machine_scans
	placeFailures *obs.Counter // cluster.place_failures: place() found no machine
	inspections   *obs.Counter // cluster.preempt_inspections: running lists tryPreempt walked
	skipped       *obs.Counter // cluster.preempt_skipped: machines the prefilter rejected
	// retriesSkipped counts pending tasks schedulePending did not retry
	// because no capacity rose since they last failed.
	retriesSkipped *obs.Counter   // cluster.retries_skipped
	queueDepth     *obs.Histogram // cluster.queue_depth, sampled per dispatched event
	pendingGroup   [3]*obs.Gauge  // cluster.pending.{low,middle,high}, set per dispatched event
}

func newSimMetrics(reg *obs.Registry) simMetrics {
	m := simMetrics{
		events:         reg.Counter("cluster.events_dispatched"),
		scans:          reg.Counter("cluster.machine_scans"),
		placeFailures:  reg.Counter("cluster.place_failures"),
		inspections:    reg.Counter("cluster.preempt_inspections"),
		skipped:        reg.Counter("cluster.preempt_skipped"),
		retriesSkipped: reg.Counter("cluster.retries_skipped"),
		queueDepth: reg.Histogram("cluster.queue_depth",
			[]float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
	}
	for g := range m.pendingGroup {
		m.pendingGroup[g] = reg.Gauge("cluster.pending." + trace.PriorityGroup(g).String())
	}
	return m
}

type sim struct {
	cfg      Config
	s        *rng.Stream
	met      simMetrics
	machines []*machineState
	pendingQ [trace.MaxPriority + 1][]pendingTask
	pendingN [3]int // pending tasks per priority group
	events   eventQueue
	seq      int64
	pidx     *placeIndex // nil when Config.ReferencePlacement is set

	// arrivals are the seeded arrivals in (Submit, input position)
	// order; arrivals[nextArrival:] have not been dispatched yet.
	arrivals    []*trace.Task
	nextArrival int

	// raises counts capacity-raising changes (every release and
	// machineUp), starting at 1 so a pendingTask's zero failedAt never
	// matches. See schedulePending.
	raises uint64

	rtSlab  []runningTask  // bump-allocated backing storage for attempts
	rtFree  []*runningTask // recycled attempts (safe once their evComplete popped)
	victims []*runningTask // scratch for tryPreempt/machineDown

	out        []trace.TaskEvent
	machineEvs []MachineEvent
	usage      []trace.UsageSample
	acct       *accountant // per-machine usage accumulators, on their own goroutine
	pendAcc    *timeseries.Accumulator
	stats      Stats
}

// Simulate runs the workload through the cluster and returns the
// event stream, machine series and statistics. It is SimulateCtx with
// a background context, for callers that don't need cancellation.
func Simulate(cfg Config, tasks []trace.Task, s *rng.Stream) (*Result, error) {
	return SimulateCtx(context.Background(), cfg, tasks, s)
}

// SimulateCtx is Simulate with cooperative cancellation: the event
// loop polls ctx every few hundred events, so a cancelled or expired
// context aborts the simulation promptly with ctx's cause instead of
// running the horizon out.
func SimulateCtx(ctx context.Context, cfg Config, tasks []trace.Task, s *rng.Stream) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("cluster: no machines configured")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("cluster: horizon %d must be positive", cfg.Horizon)
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 300
	}
	if cfg.Outcomes == (OutcomeMix{}) {
		cfg.Outcomes = DefaultOutcomeMix()
	}
	if err := cfg.Outcomes.validate(); err != nil {
		return nil, err
	}

	sm := &sim{cfg: cfg, s: s.Child("sim"), met: newSimMetrics(cfg.Metrics), raises: 1}
	sm.acct = &accountant{cfg: &sm.cfg, noise: s.Child("noise"), burstSeed: sm.s.Seed()}
	sm.stats.EventCounts = make(map[trace.EventType]int)

	// Accumulator construction can only fail on a range/step the
	// validation above rejects, but a hand-built Config deserves an
	// error, not a process crash: collect the first failure and return
	// it after setup instead of panicking.
	var accErr error
	newAcc := func() *timeseries.Accumulator {
		a, err := timeseries.NewAccumulator(0, cfg.Horizon, cfg.SamplePeriod)
		if err != nil && accErr == nil {
			accErr = err
		}
		return a
	}
	nm := len(cfg.Machines)
	states := make([]machineState, nm) // one slab, not nm boxes
	nbins := int((cfg.Horizon + cfg.SamplePeriod - 1) / cfg.SamplePeriod)
	bins := make([]float64, 2*nm*nbins)
	sm.machines = make([]*machineState, 0, nm)
	a := sm.acct
	a.cpu = make([][3]*timeseries.Accumulator, 0, nm)
	a.mem = make([][3]*timeseries.Accumulator, 0, nm)
	a.assign = make([]*timeseries.Accumulator, 0, nm)
	a.cache = make([]*timeseries.Accumulator, 0, nm)
	a.running = make([]*timeseries.Accumulator, 0, nm)
	for i, m := range cfg.Machines {
		ms := &states[i]
		ms.m, ms.freeCPU, ms.freeMem = m, m.CPU, m.Memory
		ms.finished, bins = bins[:nbins:nbins], bins[nbins:]
		ms.abnormal, bins = bins[:nbins:nbins], bins[nbins:]
		// Bimodal page-cache affinity: some machines serve file-backed
		// workloads, most do not (Fig 7d).
		if sm.s.Bool(0.45) {
			ms.cacheAff = sm.s.Range(2.0, 5.0)
		} else {
			ms.cacheAff = sm.s.Range(0.1, 0.8)
		}
		sm.machines = append(sm.machines, ms)
		a.cpu = append(a.cpu, [3]*timeseries.Accumulator{newAcc(), newAcc(), newAcc()})
		a.mem = append(a.mem, [3]*timeseries.Accumulator{newAcc(), newAcc(), newAcc()})
		a.assign = append(a.assign, newAcc())
		a.cache = append(a.cache, newAcc())
		a.running = append(a.running, newAcc())
	}
	sm.pendAcc = newAcc()
	if accErr != nil {
		return nil, fmt.Errorf("cluster: accumulator setup: %w", accErr)
	}
	if !cfg.ReferencePlacement {
		sm.pidx = newPlaceIndex(sm)
	}

	// Seeded arrivals never enter the heap. Pushing them would give
	// arrival i seq i, so (time, seq) order among them is (Submit,
	// input position): a stable sort by Submit. Every later push gets a
	// larger seq, so the cursor wins time ties against the heap.
	for i := range tasks {
		if tasks[i].Submit < cfg.Horizon {
			sm.arrivals = append(sm.arrivals, &tasks[i])
		}
	}
	slices.SortStableFunc(sm.arrivals, func(a, b *trace.Task) int { return cmp.Compare(a.Submit, b.Submit) })
	sm.seq = int64(len(sm.arrivals))

	// Pre-size the hot-path buffers. The heap holds one completion per
	// running task plus resubmissions and churn: a few dozen entries
	// per machine (7,127 at the peak of a 200-machine, 3-day paper
	// run). The event stream carries roughly SUBMIT + SCHEDULE +
	// terminal per attempt.
	sm.events.evs = make([]simEvent, 0, 48*nm)
	if cfg.EmitTrace {
		sm.out = make([]trace.TaskEvent, 0, 3*len(tasks))
	}

	// Seed machine churn.
	if cfg.ChurnMTBF > 0 && cfg.ChurnDowntime > 0 {
		churn := s.Child("churn")
		for mi := range sm.machines {
			t := int64(churn.ExpFloat64() * float64(cfg.ChurnMTBF))
			for t < cfg.Horizon {
				down := 1 + int64(churn.ExpFloat64()*float64(cfg.ChurnDowntime))
				sm.push(simEvent{time: t, kind: evMachineDown, machine: mi})
				if up := t + down; up < cfg.Horizon {
					sm.push(simEvent{time: up, kind: evMachineUp, machine: mi})
				}
				t += down + int64(churn.ExpFloat64()*float64(cfg.ChurnMTBF))
			}
		}
	}

	sm.acct.start()
	defer sm.acct.stop() // joins the accounting goroutine on error returns and panics
	if err := sm.run(ctx); err != nil {
		return nil, err
	}
	return sm.result(), nil
}

func (sm *sim) push(e simEvent) {
	e.seq = sm.seq
	sm.seq++
	sm.events.push(e)
}

// newRunningTask returns a zeroed attempt from the pool. Attempts are
// recycled in complete(): each attempt owns exactly one evComplete
// event, so once that event pops, neither the event heap nor any
// machine's running list can still reference the struct.
func (sm *sim) newRunningTask() *runningTask {
	if n := len(sm.rtFree); n > 0 {
		rt := sm.rtFree[n-1]
		sm.rtFree = sm.rtFree[:n-1]
		*rt = runningTask{}
		return rt
	}
	if len(sm.rtSlab) == 0 {
		sm.rtSlab = make([]runningTask, 512)
	}
	rt := &sm.rtSlab[0]
	sm.rtSlab = sm.rtSlab[1:]
	return rt
}

// emit counts one task event in the run-level tallies and, unless it
// is a SUBMIT (which has no machine), in its machine's. The event
// itself is kept only under Config.EmitTrace.
func (sm *sim) emit(e trace.TaskEvent) {
	if sm.cfg.EmitTrace {
		sm.out = append(sm.out, e)
	}
	sm.stats.EventCounts[e.Type]++
	if e.Machine < 0 {
		return
	}
	ms := sm.machines[e.Machine]
	ms.evCounts[e.Type]++
	switch {
	case e.Type == trace.EventFinish:
		ms.finished[e.Time/sm.cfg.SamplePeriod]++
	case e.Type.Abnormal():
		ms.abnormal[e.Time/sm.cfg.SamplePeriod]++
	}
}

// run drains the event heap. Cancellation and the "cluster.run" fault
// site are polled every 256 events so the hot path stays one branch
// wide; event processing itself is strictly deterministic, so the
// poll cadence never changes results — only how promptly an abort is
// noticed.
func (sm *sim) run(ctx context.Context) error {
	var polled int
	for {
		if polled++; polled&255 == 0 {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			if err := fault.Hit("cluster.run"); err != nil {
				return err
			}
		}
		e, ok := sm.next()
		if !ok || e.time >= sm.cfg.Horizon {
			break
		}
		sm.met.events.Add(1)
		switch e.kind {
		case evArrive:
			sm.arrive(e.time, e.pend)
		case evComplete:
			sm.complete(e.time, e.run)
		case evMachineDown:
			sm.machineDown(e.time, e.machine)
		case evMachineUp:
			sm.machineUp(e.time, e.machine)
		}
		sm.schedulePending(e.time)
		pending := sm.pendingN[0] + sm.pendingN[1] + sm.pendingN[2]
		sm.met.queueDepth.Observe(float64(pending))
		for g, n := range sm.pendingN {
			sm.met.pendingGroup[g].Set(float64(n))
		}
	}
	// Tasks still running at the horizon contribute usage up to the
	// horizon; their accounting happens in finishAccounting.
	sm.finishAccounting()
	return nil
}

// next removes and returns the earliest undispatched event by (time,
// seq): the arrival cursor's head or the heap's top. Seeded arrivals
// hold seqs below every pushed event's, so the cursor wins time ties.
func (sm *sim) next() (simEvent, bool) {
	if sm.nextArrival < len(sm.arrivals) {
		t := sm.arrivals[sm.nextArrival]
		if sm.events.len() == 0 || t.Submit <= sm.events.evs[0].time {
			sm.nextArrival++
			return simEvent{time: t.Submit, kind: evArrive, pend: pendingTask{task: t}}, true
		}
	}
	if sm.events.len() == 0 {
		return simEvent{}, false
	}
	return sm.events.pop(), true
}

func (sm *sim) arrive(now int64, p pendingTask) {
	t := p.task
	sm.stats.TasksSubmitted++
	sm.emit(trace.TaskEvent{
		Time: now, JobID: t.JobID, TaskIndex: t.Index,
		Machine: -1, Type: trace.EventSubmit, Priority: t.Priority,
	})
	p.enqueued = now
	sm.pendingQ[t.Priority] = append(sm.pendingQ[t.Priority], p)
	sm.pendingN[trace.GroupOf(t.Priority)]++
}

// schedulePending drains the pending queues highest priority first and
// in FCFS order within each priority. A task that cannot be placed
// (capacity or constraints) is skipped rather than blocking the queue:
// on a heterogeneous park a constrained task would otherwise convoy
// every peer behind it, which is not how the production scheduler
// behaves (constrained tasks pend individually).
//
// On the indexed Balanced/BestFit path a task is not retried until
// capacity rises after it failed (sm.raises moves). Between raises
// only reserve changes machine state, so free CPU and memory only
// fall and, for every priority, free capacity plus lower-priority
// requests never rises: place and the preemption prefilter reject the
// task again. A failure that reached tryPreempt is not recorded, since
// its running-list sum may sit within rounding of the request. Random
// draws from sm.s on every place call and the reference path is the
// skip's oracle, so both retry every task.
func (sm *sim) schedulePending(now int64) {
	skip := sm.pidx != nil && sm.cfg.Placement != Random
	skipped := 0
	for prio := trace.MaxPriority; prio >= trace.MinPriority; prio-- {
		q := sm.pendingQ[prio]
		if len(q) == 0 {
			continue
		}
		remain := q[:0]
		for _, p := range q {
			if skip && p.failedAt == sm.raises {
				skipped++
				remain = append(remain, p)
				continue
			}
			raises := sm.raises
			mi := sm.place(p.task)
			inspected := false
			if mi < 0 && sm.cfg.Preemption {
				mi, inspected = sm.preemptFor(now, p.task)
			}
			if mi < 0 {
				if !inspected {
					p.failedAt = raises
				}
				remain = append(remain, p)
				continue
			}
			// Time-weighted pending occupancy (Fig 8b pending curve).
			sm.pendAcc.AddRange(p.enqueued, now, 1)
			sm.start(now, p, mi)
			sm.pendingN[trace.GroupOf(prio)]--
		}
		sm.pendingQ[prio] = remain
	}
	if skipped > 0 {
		sm.met.retriesSkipped.Add(int64(skipped))
	}
}

// scoreOf is the placement score of a machine: higher is better, ties
// break to the lowest machine index. Both expressions are machine
// properties only, so the placement index can maintain them
// incrementally; the reference and indexed paths call this one
// function so their floating-point arithmetic is bit-identical.
//   - Balanced: mean relative headroom (worst fit).
//   - BestFit: tightest absolute free capacity. (The pre-index code
//     also subtracted the task's own requests; that per-call constant
//     never changed the argmax, and dropping it makes the score a pure
//     machine property.)
func (sm *sim) scoreOf(ms *machineState) float64 {
	if sm.cfg.Placement == BestFit {
		return -(ms.freeCPU + ms.freeMem)
	}
	return (ms.freeCPU/ms.m.CPU + ms.freeMem/ms.m.Memory) / 2
}

// place finds a machine for the task per the placement policy, or -1.
// Random draws a uniform starting index and scans from it (the same
// code runs in both modes so the RNG stream stays aligned); Balanced
// and BestFit route through the capacity index unless
// Config.ReferencePlacement pins the original linear scan.
func (sm *sim) place(t *trace.Task) int {
	var mi int
	switch {
	case sm.cfg.Placement == Random:
		mi = sm.placeRandom(t)
	case sm.pidx == nil:
		mi = sm.placeReference(t)
	default:
		mi = sm.placeIndexed(t)
	}
	if mi < 0 {
		sm.met.placeFailures.Add(1)
	}
	return mi
}

func (sm *sim) placeRandom(t *trace.Task) int {
	n := len(sm.machines)
	checkFrom := sm.s.IntN(n)
	for k := 0; k < n; k++ {
		i := (checkFrom + k) % n
		ms := sm.machines[i]
		if ms.down || ms.m.CPU < t.MinCPUClass || ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			continue
		}
		sm.met.scans.Add(int64(k + 1))
		return i
	}
	sm.met.scans.Add(int64(n))
	return -1
}

// placeReference is the original O(machines) scan, kept as the
// byte-identity oracle for the indexed path: first machine with the
// maximal score wins (strict >, so ties break to the lowest index).
func (sm *sim) placeReference(t *trace.Task) int {
	best := -1
	var bestScore float64
	for i, ms := range sm.machines {
		if ms.down || ms.m.CPU < t.MinCPUClass || ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			continue
		}
		score := sm.scoreOf(ms)
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	sm.met.scans.Add(int64(len(sm.machines)))
	return best
}

// preemptFor tries to make room for a high-priority task by evicting
// strictly-lower-priority tasks from one machine. Returns the machine
// index, or -1 if no machine can be cleared. Machines are tried in
// index order in both modes. The reference mode walks every machine;
// the indexed mode skips capacity classes below the task's constraint
// and machines mayClearFor rules out. preemptFor only runs after
// place failed, so no eligible machine fits t without evictions and a
// machine with no lower-priority work cannot be cleared. Both skips
// therefore reject only machines whose tryPreempt capacity test
// fails, and such a call evicts nothing, so skipping it is exact.
// The bool reports whether tryPreempt ran on any machine.
func (sm *sim) preemptFor(now int64, t *trace.Task) (int, bool) {
	if sm.pidx == nil {
		for i := range sm.machines {
			if sm.tryPreempt(now, t, i) {
				return i, true
			}
		}
		return -1, true
	}
	found, skipped, inspected := -1, 0, false
	for _, i := range sm.pidx.eligible(t.MinCPUClass) {
		if !sm.machines[i].mayClearFor(t.Priority, t.CPUReq, t.MemReq) {
			skipped++
			continue
		}
		inspected = true
		if sm.tryPreempt(now, t, int(i)) {
			found = int(i)
			break
		}
	}
	sm.met.skipped.Add(int64(skipped))
	return found, inspected
}

// tryPreempt clears machine i for t if evicting its strictly-lower-
// priority work frees enough capacity. Victims go lowest priority
// first (FCFS ties by start then identity) until the task fits; the
// sort keeps victim choice deterministic regardless of how the
// running list is stored.
func (sm *sim) tryPreempt(now int64, t *trace.Task, i int) bool {
	ms := sm.machines[i]
	if ms.down || ms.m.CPU < t.MinCPUClass {
		return false
	}
	sm.met.inspections.Add(1)
	var cpuGain, memGain float64
	victims := sm.victims[:0]
	for _, rt := range ms.running {
		if rt.task.Priority < t.Priority {
			victims = append(victims, rt)
			cpuGain += rt.task.CPUReq
			memGain += rt.task.MemReq
		}
	}
	ok := false
	if ms.freeCPU+cpuGain >= t.CPUReq && ms.freeMem+memGain >= t.MemReq {
		slices.SortFunc(victims, func(a, b *runningTask) int {
			if a.task.Priority != b.task.Priority {
				return cmp.Compare(a.task.Priority, b.task.Priority)
			}
			if a.start != b.start {
				return cmp.Compare(a.start, b.start)
			}
			if a.task.JobID != b.task.JobID {
				return cmp.Compare(a.task.JobID, b.task.JobID)
			}
			return cmp.Compare(a.task.Index, b.task.Index)
		})
		for _, v := range victims {
			if ms.freeCPU >= t.CPUReq && ms.freeMem >= t.MemReq {
				break
			}
			sm.evict(now, v)
		}
		if ms.freeCPU >= t.CPUReq && ms.freeMem >= t.MemReq {
			sm.stats.Preemptions++
			ok = true
		}
	}
	sm.victims = victims[:0]
	return ok
}

// machineDown takes a machine offline, evicting everything on it.
func (sm *sim) machineDown(now int64, mi int) {
	ms := sm.machines[mi]
	if ms.down {
		return
	}
	ms.down = true
	sm.idxUpdate(mi) // invalidate: down machines have no index entry
	sm.stats.MachineFailures++
	sm.machineEvs = append(sm.machineEvs, MachineEvent{Time: now, Machine: mi, Up: false})
	victims := append(sm.victims[:0], ms.running...)
	slices.SortFunc(victims, func(a, b *runningTask) int {
		if a.task.JobID != b.task.JobID {
			return cmp.Compare(a.task.JobID, b.task.JobID)
		}
		return cmp.Compare(a.task.Index, b.task.Index)
	})
	for _, rt := range victims {
		sm.evict(now, rt)
	}
	sm.victims = victims[:0]
}

// machineUp returns a machine to service.
func (sm *sim) machineUp(now int64, mi int) {
	sm.raises++
	sm.machines[mi].down = false
	sm.machineEvs = append(sm.machineEvs, MachineEvent{Time: now, Machine: mi, Up: true})
	sm.idxUpdate(mi)
}

// evict terminates a running task early with an EVICT event.
func (sm *sim) evict(now int64, rt *runningTask) {
	rt.end = now
	rt.outcome = trace.EventEvict
	sm.settle(now, rt)
}

// reserve books t's requests on machine mi and refreshes its index
// entry; release is the inverse and counts as a capacity raise. All
// free-capacity mutations go through these two so neither the index
// nor the retry rule in schedulePending can go stale.
func (sm *sim) reserve(mi int, t *trace.Task) {
	ms := sm.machines[mi]
	ms.freeCPU -= t.CPUReq
	ms.freeMem -= t.MemReq
	sm.idxUpdate(mi)
}

func (sm *sim) release(mi int, t *trace.Task) {
	sm.raises++
	ms := sm.machines[mi]
	ms.freeCPU += t.CPUReq
	ms.freeMem += t.MemReq
	sm.idxUpdate(mi)
}

// start begins an execution attempt on machine mi.
func (sm *sim) start(now int64, p pendingTask, mi int) {
	t := p.task
	ms := sm.machines[mi]
	sm.reserve(mi, t)

	outcome, dur := sm.drawOutcome(t)
	rt := sm.newRunningTask()
	rt.task, rt.machine, rt.start, rt.end = t, mi, now, now+dur
	rt.outcome, rt.retries = outcome, p.retries
	rt.cpuUse = t.CPUReq * t.Busy
	rt.memUse = t.MemReq * sm.s.Range(0.60, 0.95)
	rt.cacheUse = t.MemReq * ms.cacheAff * sm.s.Range(0.5, 1.5)
	rt.live = true
	ms.addRunning(rt)

	sm.emit(trace.TaskEvent{
		Time: now, JobID: t.JobID, TaskIndex: t.Index,
		Machine: mi, Type: trace.EventSchedule, Priority: t.Priority,
	})
	sm.stats.Attempts++
	// Fig 1 step 3: the user may tune the task's constraints while it
	// runs. Draw a uniform point inside the attempt; the UPDATE is
	// emitted at settle time only if the attempt actually survived
	// that long (an early eviction must not leave an UPDATE after the
	// terminal event).
	if sm.cfg.UpdateProb > 0 && dur > 2 && sm.s.Bool(sm.cfg.UpdateProb) {
		rt.updateAt = now + 1 + sm.s.Int64N(dur-1)
	}
	sm.push(simEvent{time: rt.end, kind: evComplete, run: rt})
}

// drawOutcome picks the terminal event and the attempt duration.
func (sm *sim) drawOutcome(t *trace.Task) (trace.EventType, int64) {
	mix := sm.cfg.Outcomes
	u := sm.s.Float64()
	var outcome trace.EventType
	switch {
	case u < mix.Finish:
		outcome = trace.EventFinish
	case u < mix.Finish+mix.Fail:
		outcome = trace.EventFail
	case u < mix.Finish+mix.Fail+mix.Kill:
		outcome = trace.EventKill
	case u < mix.Finish+mix.Fail+mix.Kill+mix.Evict:
		outcome = trace.EventEvict
	default:
		outcome = trace.EventLost
	}
	dur := t.Duration
	switch outcome {
	case trace.EventFail:
		dur = int64(float64(t.Duration) * sm.s.Range(0.05, 0.95))
	case trace.EventKill:
		dur = int64(float64(t.Duration) * sm.s.Range(0.05, 1.0))
	case trace.EventEvict:
		dur = int64(float64(t.Duration) * sm.s.Range(0.10, 0.90))
	case trace.EventLost:
		dur = int64(float64(t.Duration) * sm.s.Range(0.01, 0.20))
	}
	if dur < 1 {
		dur = 1
	}
	return outcome, dur
}

// complete handles a completion event. Stale events for attempts that
// were already evicted settle nothing. Either way this attempt's only
// remaining reference just left the event heap, so the struct goes
// back to the pool.
func (sm *sim) complete(now int64, rt *runningTask) {
	if rt.live {
		sm.settle(now, rt)
	}
	sm.rtFree = append(sm.rtFree, rt)
}

// settle finalises an attempt: frees resources, emits the terminal
// event, accounts usage and possibly resubmits.
func (sm *sim) settle(now int64, rt *runningTask) {
	sm.machines[rt.machine].removeRunning(rt)
	rt.live = false
	sm.release(rt.machine, rt.task)

	if rt.updateAt > 0 && rt.updateAt < now && rt.updateAt < sm.cfg.Horizon {
		sm.emit(trace.TaskEvent{
			Time: rt.updateAt, JobID: rt.task.JobID, TaskIndex: rt.task.Index,
			Machine: rt.machine, Type: trace.EventUpdate, Priority: rt.task.Priority,
		})
	}
	sm.emit(trace.TaskEvent{
		Time: now, JobID: rt.task.JobID, TaskIndex: rt.task.Index,
		Machine: rt.machine, Type: rt.outcome, Priority: rt.task.Priority,
	})
	sm.account(rt, now)

	retryP := 0.0
	switch rt.outcome {
	case trace.EventFail:
		retryP = sm.cfg.FailRetryP
	case trace.EventEvict:
		retryP = sm.cfg.EvictRetryP
	}
	if retryP > 0 && rt.retries < sm.cfg.MaxRetries && sm.s.Bool(retryP) {
		resub := now + sm.cfg.RetryDelay
		if resub < sm.cfg.Horizon {
			sm.push(simEvent{time: resub, kind: evArrive,
				pend: pendingTask{task: rt.task, retries: rt.retries + 1}})
		}
	}
}

// account hands the attempt's usage over [rt.start, end) to the
// accounting goroutine. The record copies everything it needs, so the
// attempt can be recycled before the record is applied.
func (sm *sim) account(rt *runningTask, end int64) {
	end = min(end, sm.cfg.Horizon)
	if end <= rt.start {
		return
	}
	sm.acct.add(usageRec{
		start: rt.start, end: end,
		cpuUse: rt.cpuUse, memUse: rt.memUse, memReq: rt.task.MemReq, cacheUse: rt.cacheUse,
		machine: int32(rt.machine), group: int32(trace.GroupOf(rt.task.Priority)),
	})
	if sm.cfg.EmitTrace {
		sm.usage = append(sm.usage, trace.UsageSample{
			Start: rt.start, End: end,
			JobID: rt.task.JobID, TaskIndex: rt.task.Index,
			Machine: rt.machine, CPU: rt.cpuUse, MemUsed: rt.memUse,
			MemAssigned: rt.task.MemReq, PageCache: rt.cacheUse,
			Priority: rt.task.Priority,
		})
	}
}

// usageRec is one settled attempt's usage over [start, end).
type usageRec struct {
	start, end                       int64
	cpuUse, memUse, memReq, cacheUse float64
	machine, group                   int32
}

const (
	usageBatch = 512 // records per batch
	// usageBatches is how many batches circulate: the one the
	// simulating goroutine fills and up to three queued or being
	// applied. Both channels are sized to hold them all, so only
	// taking a free batch ever blocks.
	usageBatches = 4
)

// accountant applies usage records to the per-machine accumulators on
// its own goroutine. The simulating goroutine appends records to a
// batch and sends full batches over a bounded channel; one consumer
// applies them in send order and returns them through a free list, so
// the noise draws happen in exactly the order a serial loop makes
// them. Nothing else reads the accumulators or the noise stream before
// stop, which joins the consumer.
type accountant struct {
	// Owned by the consumer between start and stop; cfg is read-only.
	cfg       *Config
	noise     *rng.Stream
	burstSeed uint64
	cpu, mem  [][3]*timeseries.Accumulator
	assign    []*timeseries.Accumulator
	cache     []*timeseries.Accumulator
	running   []*timeseries.Accumulator

	batch      []usageRec // being filled by the simulating goroutine
	full, free chan []usageRec
	done       chan struct{}
	panicked   any // a recovered consumer panic, written before done closes
}

func (a *accountant) start() {
	a.full = make(chan []usageRec, usageBatches)
	a.free = make(chan []usageRec, usageBatches)
	for range usageBatches - 1 {
		a.free <- make([]usageRec, 0, usageBatch)
	}
	a.batch = make([]usageRec, 0, usageBatch)
	a.done = make(chan struct{})
	go a.consume(a.full, a.free)
}

func (a *accountant) add(r usageRec) {
	a.batch = append(a.batch, r)
	if len(a.batch) == usageBatch {
		a.full <- a.batch
		a.batch = <-a.free
	}
}

// stop flushes the last batch, closes the pipe and waits for the
// consumer to exit, then re-raises a consumer panic on the calling
// goroutine. Calls after the first do nothing.
func (a *accountant) stop() {
	if a.full == nil {
		return
	}
	a.full <- a.batch
	close(a.full)
	<-a.done
	a.full, a.batch = nil, nil
	if p := a.panicked; p != nil {
		a.panicked = nil
		panic(p)
	}
}

// consume applies batches until the pipe closes. After a panic it keeps
// receiving, and returning, batches so the simulating goroutine never
// blocks on a dead consumer; stop re-raises the panic.
func (a *accountant) consume(full <-chan []usageRec, free chan<- []usageRec) {
	defer close(a.done)
	defer func() {
		if p := recover(); p != nil {
			a.panicked = p
			for b := range full {
				free <- b[:0]
			}
		}
	}()
	for b := range full {
		for i := range b {
			a.apply(&b[i])
		}
		free <- b[:0]
	}
}

// apply adds one record to its machine's accumulators, window by
// window so per-window noise shows up in the host signal.
func (a *accountant) apply(r *usageRec) {
	step := a.cfg.SamplePeriod
	mi := int(r.machine)
	cpu := a.cpu[mi][r.group]
	mem := a.mem[mi][r.group]
	for t := r.start; t < r.end; {
		winEnd := min((t/step+1)*step, r.end)
		frac := float64(winEnd-t) / float64(step)
		n := 1 + a.cfg.UsageNoise*a.noise.NormFloat64()
		if n < 0.05 {
			n = 0.05
		}
		n *= a.burstFactor(mi, t/step)
		cpu.Add(t, r.cpuUse*n*frac)
		mem.Add(t, r.memUse*frac*(1+0.15*a.noise.NormFloat64()))
		a.assign[mi].Add(t, r.memReq*frac)
		a.cache[mi].Add(t, r.cacheUse*frac)
		a.running[mi].Add(t, frac)
		t = winEnd
	}
}

// burstFactor returns the machine-wide CPU burst multiplier for one
// sampling window. It hashes (machine, window, seed) so every task on
// the machine sees the same factor in the same window regardless of
// accounting order — keeping the simulation deterministic without
// storing a machines x windows matrix.
func (a *accountant) burstFactor(machine int, window int64) float64 {
	if a.cfg.BurstProb <= 0 || a.cfg.BurstMax <= 1 {
		return 1
	}
	x := uint64(machine)<<40 ^ uint64(window) ^ a.burstSeed
	// splitmix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u >= a.cfg.BurstProb {
		return 1
	}
	// Map the sub-threshold draw to a factor in (1.5, BurstMax).
	return 1.5 + (a.cfg.BurstMax-1.5)*(u/a.cfg.BurstProb)
}

// finishAccounting settles tasks still running at the horizon (they
// contribute usage up to the horizon but emit no terminal event,
// exactly like the truncated real trace), counts stranded pending
// tasks, and joins the accounting goroutine.
func (sm *sim) finishAccounting() {
	for _, ms := range sm.machines {
		// Deterministic order: accounting consumes the noise stream.
		// Sorting in place is fine — the run is over, so the swap-remove
		// bookkeeping no longer matters.
		slices.SortFunc(ms.running, func(a, b *runningTask) int {
			if a.task.JobID != b.task.JobID {
				return cmp.Compare(a.task.JobID, b.task.JobID)
			}
			return cmp.Compare(a.task.Index, b.task.Index)
		})
		for _, rt := range ms.running {
			sm.account(rt, sm.cfg.Horizon)
		}
	}
	for _, q := range sm.pendingQ {
		sm.stats.NeverScheduled += len(q)
		for _, p := range q {
			sm.pendAcc.AddRange(p.enqueued, sm.cfg.Horizon, 1)
		}
	}
	sm.acct.stop()
}

// publishStats copies the run-level tallies into the configured
// registry once, after the event loop has drained (so the registry
// never sees a half-run snapshot).
func (sm *sim) publishStats() {
	reg := sm.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("cluster.tasks_submitted").Add(int64(sm.stats.TasksSubmitted))
	reg.Counter("cluster.tasks_scheduled").Add(int64(sm.stats.Attempts))
	reg.Counter("cluster.preemptions").Add(int64(sm.stats.Preemptions))
	reg.Counter("cluster.never_scheduled").Add(int64(sm.stats.NeverScheduled))
	reg.Counter("cluster.machine_failures").Add(int64(sm.stats.MachineFailures))
	for typ, n := range sm.stats.EventCounts {
		reg.Counter("cluster.events." + typ.String()).Add(int64(n))
	}
}

func (sm *sim) result() *Result {
	sm.publishStats()
	res := &Result{
		Config:        sm.cfg,
		Events:        sm.out,
		Usage:         sm.usage,
		MachineEvents: sm.machineEvs,
		Pending:       sm.pendAcc.Series(),
		Stats:         sm.stats,
	}
	for i, ms := range sm.machines {
		s := &MachineSeries{Machine: ms.m, EventCounts: ms.evCounts}
		for g := 0; g < 3; g++ {
			s.CPUByGroup[g] = sm.acct.cpu[i][g].Series()
			s.MemByGroup[g] = sm.acct.mem[i][g].Series()
		}
		// Physical clamp: a machine cannot consume beyond its CPU
		// capacity; demand bursts above it saturate (this is why the
		// paper sees per-machine maxima exactly at capacity, Fig 7a).
		clampGroups(s.CPUByGroup[:], ms.m.CPU)
		clampGroups(s.MemByGroup[:], ms.m.Memory)
		s.MemAssigned = sm.acct.assign[i].Series()
		clampSeries(s.MemAssigned, ms.m.Memory)
		s.PageCache = sm.acct.cache[i].Series()
		clampSeries(s.PageCache, ms.m.PageCache)
		s.Running = sm.acct.running[i].Series()
		s.Finished = sm.cumulative(ms.finished)
		s.Abnormal = sm.cumulative(ms.abnormal)
		res.Machines = append(res.Machines, s)
	}
	return res
}

// cumulative turns per-window counts into running totals in place.
func (sm *sim) cumulative(counts []float64) *timeseries.Series {
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return &timeseries.Series{Step: sm.cfg.SamplePeriod, Values: counts}
}

// clampGroups scales the per-group series down proportionally wherever
// their sum exceeds cap.
func clampGroups(groups []*timeseries.Series, cap float64) {
	if len(groups) == 0 {
		return
	}
	n := len(groups[0].Values)
	for i := 0; i < n; i++ {
		var sum float64
		for _, g := range groups {
			sum += g.Values[i]
		}
		if sum > cap {
			scale := cap / sum
			for _, g := range groups {
				g.Values[i] *= scale
			}
		}
	}
}

func clampSeries(s *timeseries.Series, cap float64) {
	for i, v := range s.Values {
		if v > cap {
			s.Values[i] = cap
		}
	}
}
