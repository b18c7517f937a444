package hostload

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// fakeMachine builds a MachineSeries with prescribed group signals.
func fakeMachine(id int, cpuCap, memCap float64, step int64, cpuLow, cpuMid, cpuHigh []float64) *cluster.MachineSeries {
	mk := func(vs []float64) *timeseries.Series {
		return &timeseries.Series{Start: 0, Step: step, Values: append([]float64(nil), vs...)}
	}
	zeros := make([]float64, len(cpuLow))
	ms := &cluster.MachineSeries{
		Machine: trace.Machine{ID: id, CPU: cpuCap, Memory: memCap, PageCache: 1},
	}
	ms.CPUByGroup[0] = mk(cpuLow)
	ms.CPUByGroup[1] = mk(cpuMid)
	ms.CPUByGroup[2] = mk(cpuHigh)
	for g := 0; g < 3; g++ {
		ms.MemByGroup[g] = mk(zeros)
	}
	ms.MemAssigned = mk(zeros)
	ms.PageCache = mk(zeros)
	ms.Running = mk(zeros)
	return ms
}

func TestSeriesOfGroups(t *testing.T) {
	ms := fakeMachine(0, 1, 1, 300,
		[]float64{0.1, 0.1}, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	all := SeriesOf(ms, CPUUsage, trace.LowPriority)
	if math.Abs(all.Values[0]-0.6) > 1e-12 {
		t.Fatalf("all-groups CPU %v", all.Values[0])
	}
	midHigh := SeriesOf(ms, CPUUsage, trace.MiddlePriority)
	if math.Abs(midHigh.Values[0]-0.5) > 1e-12 {
		t.Fatalf("mid+high CPU %v", midHigh.Values[0])
	}
	high := SeriesOf(ms, CPUUsage, trace.HighPriority)
	if math.Abs(high.Values[0]-0.3) > 1e-12 {
		t.Fatalf("high CPU %v", high.Values[0])
	}
}

func TestCapacityAndRelative(t *testing.T) {
	ms := fakeMachine(0, 0.5, 0.25, 300,
		[]float64{0.25, 0.5}, []float64{0, 0}, []float64{0, 0})
	if Capacity(ms.Machine, CPUUsage) != 0.5 || Capacity(ms.Machine, MemUsed) != 0.25 ||
		Capacity(ms.Machine, MemAssigned) != 0.25 || Capacity(ms.Machine, PageCache) != 1 {
		t.Fatal("capacity lookup wrong")
	}
	rel := RelativeSeries(ms, CPUUsage, trace.LowPriority)
	if rel.Values[0] != 0.5 || rel.Values[1] != 1 {
		t.Fatalf("relative series %v", rel.Values)
	}
}

func TestAttributeNames(t *testing.T) {
	if CPUUsage.String() != "cpu" || MemUsed.String() != "memory-used" ||
		MemAssigned.String() != "memory-assigned" || PageCache.String() != "page-cache" {
		t.Fatal("attribute names wrong")
	}
}

func TestMaxLoadsByClass(t *testing.T) {
	a := fakeMachine(0, 0.5, 1, 300, []float64{0.1, 0.45}, []float64{0, 0}, []float64{0, 0})
	b := fakeMachine(1, 0.5, 1, 300, []float64{0.2, 0.3}, []float64{0, 0}, []float64{0, 0})
	c := fakeMachine(2, 1.0, 1, 300, []float64{0.9, 0.2}, []float64{0, 0}, []float64{0, 0})
	byClass := MaxLoadsByClass([]*cluster.MachineSeries{a, b, c}, CPUUsage)
	if len(byClass[0.5]) != 2 || len(byClass[1.0]) != 1 {
		t.Fatalf("class grouping %v", byClass)
	}
	if byClass[0.5][0] != 0.45 || byClass[1.0][0] != 0.9 {
		t.Fatalf("maxima %v", byClass)
	}
}

func TestAtCapacityFraction(t *testing.T) {
	a := fakeMachine(0, 0.5, 1, 300, []float64{0.5}, []float64{0}, []float64{0})
	b := fakeMachine(1, 0.5, 1, 300, []float64{0.2}, []float64{0}, []float64{0})
	frac := AtCapacityFraction([]*cluster.MachineSeries{a, b}, CPUUsage, 0.99)
	if frac[0.5] != 0.5 {
		t.Fatalf("at-capacity fraction %v", frac)
	}
}

func TestRunningStateDurations(t *testing.T) {
	run := []float64{5, 5, 15, 15, 15, 25, 45, 45, 60}
	ms := fakeMachine(0, 1, 1, 300, make([]float64, 9), make([]float64, 9), make([]float64, 9))
	ms.Running = &timeseries.Series{Start: 0, Step: 300, Values: run}
	durs := RunningStateDurations([]*cluster.MachineSeries{ms}, DefaultCountIntervals())
	iv := DefaultCountIntervals()
	if d := durs[iv[0]]; len(d) != 1 || d[0] != 600 {
		t.Fatalf("[0,9] durations %v", d)
	}
	if d := durs[iv[1]]; len(d) != 1 || d[0] != 900 {
		t.Fatalf("[10,19] durations %v", d)
	}
	if d := durs[iv[2]]; len(d) != 1 || d[0] != 300 {
		t.Fatalf("[20,29] durations %v", d)
	}
	if d := durs[iv[4]]; len(d) != 1 || d[0] != 600 {
		t.Fatalf("[40,49] durations %v", d)
	}
	if d := durs[iv[5]]; len(d) != 1 || d[0] != 300 {
		t.Fatalf("[50,inf) durations %v", d)
	}
}

func TestLevelTraceAndDurations(t *testing.T) {
	ms := fakeMachine(0, 0.5, 1, 300,
		[]float64{0.05, 0.05, 0.25, 0.25, 0.45}, // relative: 0.1,0.1,0.5,0.5,0.9
		[]float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0})
	levels := LevelTrace(ms, CPUUsage, trace.LowPriority)
	want := []int{0, 0, 2, 2, 4}
	for i, l := range levels {
		if l != want[i] {
			t.Fatalf("levels %v, want %v", levels, want)
		}
	}
	durs := LevelDurations([]*cluster.MachineSeries{ms}, CPUUsage, trace.LowPriority)
	if len(durs[0]) != 1 || durs[0][0] != 600 {
		t.Fatalf("level 0 durations %v", durs[0])
	}
	if len(durs[2]) != 1 || durs[2][0] != 600 {
		t.Fatalf("level 2 durations %v", durs[2])
	}
	if len(durs[4]) != 1 || durs[4][0] != 300 {
		t.Fatalf("level 4 durations %v", durs[4])
	}
}

func TestUsageSamplesAndMean(t *testing.T) {
	ms := fakeMachine(0, 0.5, 1, 300,
		[]float64{0.1, 0.4}, []float64{0, 0}, []float64{0, 0})
	samples := UsageSamples([]*cluster.MachineSeries{ms}, CPUUsage, trace.LowPriority)
	if len(samples) != 2 || samples[0] != 20 || samples[1] != 80 {
		t.Fatalf("usage samples %v", samples)
	}
	mean := MeanRelativeUsage([]*cluster.MachineSeries{ms}, CPUUsage, trace.LowPriority)
	if math.Abs(mean-0.5) > 1e-12 {
		t.Fatalf("mean usage %v", mean)
	}
}

func TestNoiseComparisonGoogleVsGrid(t *testing.T) {
	// End-to-end: Google noise from the simulator must dwarf the
	// synthetic Grid host's (the paper's ~20x observation).
	machines := synth.GoogleMachines(20, rng.New(1))
	horizon := int64(2 * 86400)
	cfg := cluster.DefaultConfig(machines, horizon)
	gcfg := synth.ScaledGoogleConfig(len(machines), horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(2))
	res, err := cluster.Simulate(cfg, tasks, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	gNoise := Noise(res.Machines, CPUUsage, 2)
	if gNoise.N == 0 || gNoise.Mean <= 0 {
		t.Fatalf("google noise %+v", gNoise)
	}

	var gridCPU []*timeseries.Series
	for i := 0; i < 20; i++ {
		cpu, _ := synth.GridHostSeries(synth.DefaultGridHost("AuverGrid"), horizon, rng.New(uint64(10+i)))
		gridCPU = append(gridCPU, cpu)
	}
	agNoise := SeriesNoise(gridCPU, 2)
	if agNoise.N != 20 {
		t.Fatalf("grid noise %+v", agNoise)
	}
	ratio := gNoise.Mean / agNoise.Mean
	if ratio < 5 {
		t.Errorf("noise ratio %v, want Google >> Grid (paper: ~20x)", ratio)
	}

	// Autocorrelation: grid hosts are stable, Google hosts are not.
	gAC := MeanAutocorrelation(res.Machines, CPUUsage, 1)
	agAC := MeanSeriesAutocorrelation(gridCPU, 1)
	if agAC < 0.8 {
		t.Errorf("grid autocorrelation %v, want high", agAC)
	}
	if gAC >= agAC {
		t.Errorf("google autocorrelation %v should be below grid %v", gAC, agAC)
	}
}

// TestScansDeterministicAcrossRuns re-runs every parallelised
// per-machine scan on the same simulated park and requires identical
// output each time: the index-sharded workers must merge in machine
// order no matter how the scheduler interleaves them.
func TestScansDeterministicAcrossRuns(t *testing.T) {
	machines := synth.GoogleMachines(16, rng.New(7))
	horizon := int64(86400)
	cfg := cluster.DefaultConfig(machines, horizon)
	gcfg := synth.ScaledGoogleConfig(len(machines), horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(8))
	res, err := cluster.Simulate(cfg, tasks, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		maxLoads  map[float64][]float64
		runDurs   map[CountInterval][]float64
		levelDurs [UsageLevels][]float64
		samples   []float64
		noise     NoiseStats
		autocorr  float64
		cpuMem    float64
		meanUsage float64
	}
	take := func() snapshot {
		return snapshot{
			maxLoads:  MaxLoadsByClass(res.Machines, CPUUsage),
			runDurs:   RunningStateDurations(res.Machines, DefaultCountIntervals()),
			levelDurs: LevelDurations(res.Machines, CPUUsage, trace.LowPriority),
			samples:   UsageSamples(res.Machines, MemUsed, trace.LowPriority),
			noise:     Noise(res.Machines, CPUUsage, 2),
			autocorr:  MeanAutocorrelation(res.Machines, CPUUsage, 1),
			cpuMem:    CPUMemCorrelation(res.Machines),
			meanUsage: MeanRelativeUsage(res.Machines, CPUUsage, trace.LowPriority),
		}
	}
	first := take()
	for i := 0; i < 3; i++ {
		if again := take(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced different results:\nfirst: %+v\nagain: %+v", i+1, first, again)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if n := Noise(nil, CPUUsage, 2); n.N != 0 {
		t.Fatal("empty noise should be zero")
	}
	if n := SeriesNoise(nil, 2); n.N != 0 {
		t.Fatal("empty series noise should be zero")
	}
	if !math.IsNaN(MeanRelativeUsage(nil, CPUUsage, trace.LowPriority)) {
		t.Fatal("empty mean usage should be NaN")
	}
	if got := MaxLoadsByClass(nil, CPUUsage); len(got) != 0 {
		t.Fatal("empty max loads should be empty")
	}
}

// TestZeroCapacityMachine is the end-to-end regression for the
// zero-capacity division: a machine with CPU capacity 0 used to yield
// an all-Inf/NaN relative series that poisoned MeanRelativeUsage (NaN
// for the whole population) and leaked Inf-clamped samples into
// UsageSamples. Now its relative series is all-NaN and every
// population kernel skips it.
func TestZeroCapacityMachine(t *testing.T) {
	good := fakeMachine(0, 0.5, 1, 300, []float64{0.1, 0.4}, []float64{0, 0}, []float64{0, 0})
	dead := fakeMachine(1, 0, 1, 300, []float64{0.2, 0.3}, []float64{0, 0}, []float64{0, 0})
	pop := []*cluster.MachineSeries{good, dead}

	rel := RelativeSeries(dead, CPUUsage, trace.LowPriority)
	for i, v := range rel.Values {
		if !math.IsNaN(v) {
			t.Fatalf("zero-capacity relative sample %d = %v, want NaN", i, v)
		}
	}

	mean := MeanRelativeUsage(pop, CPUUsage, trace.LowPriority)
	if math.IsNaN(mean) || math.Abs(mean-0.5) > 1e-12 {
		t.Errorf("MeanRelativeUsage = %v, want 0.5 — zero-capacity machine poisoned the mean", mean)
	}

	samples := UsageSamples(pop, CPUUsage, trace.LowPriority)
	if len(samples) != 2 || samples[0] != 20 || samples[1] != 80 {
		t.Errorf("UsageSamples = %v, want the good machine's [20 80] only", samples)
	}

	// Level durations must not credit the dead machine with idle time.
	durs := LevelDurations(pop, CPUUsage, trace.LowPriority)
	var total float64
	for _, ds := range durs {
		for _, d := range ds {
			total += d
		}
	}
	if total != 600 {
		t.Errorf("LevelDurations total = %v s, want 600 (good machine only)", total)
	}
}

// TestUsageSketchMatchesExactUsage: the streaming UsageSketch must
// agree with the materializing UsageSamples — identical count and
// mean, quantiles within the bin-width bound — including in the
// presence of a zero-capacity machine (counted as Rejected).
func TestUsageSketchMatchesExactUsage(t *testing.T) {
	s := rng.New(11)
	var pop []*cluster.MachineSeries
	for i := 0; i < 30; i++ {
		vals := make([]float64, 200)
		for j := range vals {
			vals[j] = 0.5 * s.Float64()
		}
		pop = append(pop, fakeMachine(i, 0.5, 1, 300, vals, make([]float64, 200), make([]float64, 200)))
	}
	pop = append(pop, fakeMachine(99, 0, 1, 300, make([]float64, 200), make([]float64, 200), make([]float64, 200)))

	exact := UsageSamples(pop, CPUUsage, trace.LowPriority)
	sk, err := UsageSketch(pop, CPUUsage, trace.LowPriority, 200)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Count() != len(exact) {
		t.Fatalf("sketch count %d != exact %d", sk.Count(), len(exact))
	}
	if sk.Rejected() != 200 {
		t.Errorf("Rejected = %d, want 200 (the zero-capacity machine's samples)", sk.Rejected())
	}
	var sum float64
	for _, v := range exact {
		sum += v
	}
	if math.Abs(sk.Mean()-sum/float64(len(exact))) > 1e-9 {
		t.Errorf("sketch mean %v != exact %v", sk.Mean(), sum/float64(len(exact)))
	}
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	w := sk.BinWidth()
	for _, p := range []float64{0.1, 0.5, 0.9} {
		r := int(math.Ceil(p * float64(len(sorted))))
		if r < 1 {
			r = 1
		}
		got, want := sk.Quantile(p), sorted[r-1]
		if math.Abs(got-want) > w {
			t.Errorf("Quantile(%g) = %v, exact %v, err beyond bin width %v", p, got, want, w)
		}
	}

	// Determinism: a second pass over the same park is bit-identical.
	sk2, err := UsageSketch(pop, CPUUsage, trace.LowPriority, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk.BinCounts(), sk2.BinCounts()) || sk.Sum() != sk2.Sum() {
		t.Error("UsageSketch not deterministic across runs")
	}
}

// benchPark builds a synthetic machine park for the streaming
// benchmarks: nMachines hosts with nSamples usage samples each.
func benchPark(nMachines, nSamples int) []*cluster.MachineSeries {
	s := rng.New(5)
	pop := make([]*cluster.MachineSeries, nMachines)
	zeros := make([]float64, nSamples)
	for i := range pop {
		vals := make([]float64, nSamples)
		for j := range vals {
			vals[j] = 0.5 * s.Float64()
		}
		pop[i] = fakeMachine(i, 0.5, 1, 300, vals, zeros, zeros)
	}
	return pop
}

// BenchmarkUsageSamplesExact materializes the full population slice —
// the O(population) baseline the sketch replaces.
func BenchmarkUsageSamplesExact(b *testing.B) {
	pop := benchPark(64, 288)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := UsageSamples(pop, CPUUsage, trace.LowPriority)
		_ = stats.NewSorted(samples)
	}
}

// BenchmarkUsageSamplesStreaming runs the same aggregation through the
// O(bins)-per-machine sketch path; allocated bytes per op is the
// headline (peak-footprint proxy) metric.
func BenchmarkUsageSamplesStreaming(b *testing.B) {
	pop := benchPark(64, 288)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UsageSketch(pop, CPUUsage, trace.LowPriority, 200); err != nil {
			b.Fatal(err)
		}
	}
}
