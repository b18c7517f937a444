package cluster

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// TestUsageAccountedToCorrectGroup: tasks of each priority group land
// in their own accumulator channel.
func TestUsageAccountedToCorrectGroup(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	cfg.Outcomes = alwaysFinish()
	cfg.UsageNoise = 0 // deterministic usage for exact accounting
	cfg.BurstProb = 0
	tasks := []trace.Task{
		oneTask(1, 0, 2, 0.1, 0.1, 600),  // low
		oneTask(2, 0, 6, 0.1, 0.1, 600),  // middle
		oneTask(3, 0, 10, 0.1, 0.1, 600), // high
	}
	res, err := Simulate(cfg, tasks, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Machines[0]
	sums := [3]float64{}
	for g := 0; g < 3; g++ {
		for _, v := range m.CPUByGroup[g].Values {
			sums[g] += v
		}
	}
	// Each task: cpuUse = 0.1 * busy(0.8) over 600 s = 2 windows of 0.08.
	want := 0.1 * 0.8 * 2
	for g, s := range sums {
		if math.Abs(s-want) > 1e-9 {
			t.Errorf("group %d CPU sum %v, want %v", g, s, want)
		}
	}
}

// TestMemAssignedTracksRequests: the assigned-memory channel carries
// the request, not the (smaller) consumption.
func TestMemAssignedTracksRequests(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	cfg.Outcomes = alwaysFinish()
	tasks := []trace.Task{oneTask(1, 0, 5, 0.2, 0.4, 900)}
	res, err := Simulate(cfg, tasks, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Machines[0]
	// While running, assigned = 0.4 and used <= 0.95*0.4.
	maxAssigned, maxUsed := 0.0, 0.0
	for i := range m.MemAssigned.Values {
		if m.MemAssigned.Values[i] > maxAssigned {
			maxAssigned = m.MemAssigned.Values[i]
		}
		used := m.Mem().Values[i]
		if used > maxUsed {
			maxUsed = used
		}
	}
	if math.Abs(maxAssigned-0.4) > 1e-9 {
		t.Fatalf("max assigned %v, want 0.4", maxAssigned)
	}
	if maxUsed > 0.4 || maxUsed < 0.4*0.5 {
		t.Fatalf("max used %v, want in (0.2, 0.4)", maxUsed)
	}
}

// TestBurstFactorDeterministic: the hash-based burst factor never
// depends on call order and respects its bounds.
func TestBurstFactorDeterministic(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	a := &accountant{cfg: &cfg, burstSeed: rng.New(7).Seed()}
	seen := map[int64]float64{}
	for w := int64(0); w < 5000; w++ {
		f := a.burstFactor(3, w)
		seen[w] = f
		if f != 1 && (f < 1.5 || f > cfg.BurstMax) {
			t.Fatalf("burst factor %v out of bounds at window %d", f, w)
		}
	}
	// Replay: identical values.
	for w := int64(0); w < 5000; w++ {
		if a.burstFactor(3, w) != seen[w] {
			t.Fatalf("burst factor changed on replay at window %d", w)
		}
	}
	// Burst rate roughly matches BurstProb.
	bursts := 0
	for _, f := range seen {
		if f != 1 {
			bursts++
		}
	}
	rate := float64(bursts) / float64(len(seen))
	if rate < cfg.BurstProb/3 || rate > cfg.BurstProb*3 {
		t.Fatalf("burst rate %v, want ~%v", rate, cfg.BurstProb)
	}
	// Disabled bursts always return 1.
	cfg.BurstProb = 0
	for w := int64(0); w < 100; w++ {
		if a.burstFactor(0, w) != 1 {
			t.Fatal("burst with BurstProb=0")
		}
	}
}

// TestCustomOutcomeMix: an all-kill mix produces only kills.
func TestCustomOutcomeMix(t *testing.T) {
	cfg := DefaultConfig(smallPark(2), 7200)
	cfg.Outcomes = OutcomeMix{Kill: 1}
	var tasks []trace.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, oneTask(int64(i+1), int64(i*10), 5, 0.1, 0.1, 600))
	}
	res, err := Simulate(cfg, tasks, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventCounts[trace.EventFinish] != 0 {
		t.Fatal("finishes under all-kill mix")
	}
	if res.Stats.EventCounts[trace.EventKill] != 20 {
		t.Fatalf("kills %d, want 20", res.Stats.EventCounts[trace.EventKill])
	}
	if res.Stats.AbnormalFraction() != 1 {
		t.Fatalf("abnormal fraction %v, want 1", res.Stats.AbnormalFraction())
	}
}

// TestRetryCapRespected: a permanently failing task stops after
// MaxRetries resubmissions.
func TestRetryCapRespected(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 100000)
	cfg.Outcomes = OutcomeMix{Fail: 1}
	cfg.FailRetryP = 1
	cfg.MaxRetries = 5
	res, err := Simulate(cfg, []trace.Task{oneTask(1, 0, 5, 0.1, 0.1, 100)}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.EventCounts[trace.EventSubmit]; got != 6 {
		t.Fatalf("submits %d, want 1 + 5 retries", got)
	}
}

// TestTasksBeyondHorizonIgnored: submissions past the horizon produce
// no events.
func TestTasksBeyondHorizonIgnored(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 1000)
	cfg.Outcomes = alwaysFinish()
	tasks := []trace.Task{
		oneTask(1, 500, 5, 0.1, 0.1, 100),
		oneTask(2, 1500, 5, 0.1, 0.1, 100), // beyond horizon
	}
	res := simulateTraced(t, cfg, tasks, rng.New(5))
	if res.Stats.TasksSubmitted != 1 {
		t.Fatalf("submitted %d, want 1", res.Stats.TasksSubmitted)
	}
	for _, e := range res.Events {
		if e.JobID == 2 {
			t.Fatal("beyond-horizon task produced events")
		}
	}
}

// TestUpdateEventsEmitted: with UpdateProb = 1 every surviving attempt
// carries one UPDATE strictly inside its run, and the stream still
// satisfies the Fig 1 state machine even with evictions in play.
func TestUpdateEventsEmitted(t *testing.T) {
	cfg := DefaultConfig(smallPark(2), 12*3600)
	cfg.UpdateProb = 1
	var tasks []trace.Task
	s := rng.New(77)
	for i := 0; i < 60; i++ {
		tasks = append(tasks, oneTask(int64(i+1), s.Int64N(6*3600), 1+s.IntN(12), 0.1, 0.1, 600+s.Int64N(3600)))
	}
	res := simulateTraced(t, cfg, tasks, rng.New(78))
	if res.Stats.EventCounts[trace.EventUpdate] == 0 {
		t.Fatal("no UPDATE events with UpdateProb=1")
	}
	tr := &trace.Trace{Events: res.Events}
	if err := tr.Validate(); err != nil {
		t.Fatalf("stream with UPDATEs invalid: %v", err)
	}
}

// TestUpdateDisabled: UpdateProb = 0 emits no UPDATE events.
func TestUpdateDisabled(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	cfg.UpdateProb = 0
	cfg.Outcomes = alwaysFinish()
	res, err := Simulate(cfg, []trace.Task{oneTask(1, 0, 5, 0.1, 0.1, 900)}, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventCounts[trace.EventUpdate] != 0 {
		t.Fatal("UPDATE emitted while disabled")
	}
}

// TestSkipScanAvoidsConstraintConvoy: an unplaceable constrained task
// must not block placeable peers of the same priority.
func TestSkipScanAvoidsConstraintConvoy(t *testing.T) {
	machines := []trace.Machine{{ID: 0, CPU: 0.5, Memory: 1, PageCache: 1}}
	cfg := DefaultConfig(machines, 3600)
	cfg.Outcomes = alwaysFinish()
	blocked := oneTask(1, 0, 5, 0.1, 0.1, 600)
	blocked.MinCPUClass = 1.0 // no qualifying machine exists
	runnable := oneTask(2, 10, 5, 0.1, 0.1, 600)
	res := simulateTraced(t, cfg, []trace.Task{blocked, runnable}, rng.New(80))
	var ranSecond bool
	for _, e := range res.Events {
		if e.Type == trace.EventSchedule && e.JobID == 2 {
			ranSecond = true
		}
	}
	if !ranSecond {
		t.Fatal("constrained head task convoyed its peer")
	}
	if res.Stats.NeverScheduled != 1 {
		t.Fatalf("never scheduled %d, want 1 (the constrained task)", res.Stats.NeverScheduled)
	}
}

// TestRunningSeriesMatchesOccupancy: the running-count channel
// integrates to total task runtime / sample period.
func TestRunningSeriesMatchesOccupancy(t *testing.T) {
	cfg := DefaultConfig(smallPark(1), 3600)
	cfg.Outcomes = alwaysFinish()
	tasks := []trace.Task{
		oneTask(1, 0, 5, 0.1, 0.1, 600),
		oneTask(2, 300, 5, 0.1, 0.1, 900),
	}
	res, err := Simulate(cfg, tasks, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Machines[0].Running.Values {
		sum += v * 300 // mean occupancy * window seconds
	}
	if math.Abs(sum-1500) > 1e-6 {
		t.Fatalf("integrated running time %v, want 1500", sum)
	}
}
