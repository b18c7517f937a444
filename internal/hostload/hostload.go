// Package hostload implements the Section IV host-load analyses of
// the paper: per-machine maximum-load distributions by capacity class
// (Fig 7), mass-count disparity
// of unchanged running-queue-state durations (Fig 9), usage-level
// traces (Fig 10), unchanged usage-level duration statistics (Tables
// II-III), usage mass-count (Figs 11-12) and the Google-vs-Grid
// host-load comparison with noise and autocorrelation (Fig 13).
package hostload

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// The per-machine scans below fan out over an index-sharded worker
// pool (par.Map) and merge the per-machine partials serially in
// machine order, so their output — including floating-point
// accumulation order — is byte-identical to a plain loop over the
// machines.

// Attribute selects which host signal an analysis reads.
type Attribute int

// Host-load attributes, matching Fig 7's four panels.
const (
	CPUUsage Attribute = iota
	MemUsed
	MemAssigned
	PageCache
)

// String names the attribute.
func (a Attribute) String() string {
	switch a {
	case CPUUsage:
		return "cpu"
	case MemUsed:
		return "memory-used"
	case MemAssigned:
		return "memory-assigned"
	case PageCache:
		return "page-cache"
	}
	return "attribute(?)"
}

// SeriesOf returns the machine's series for the attribute, restricted
// to priority groups >= minGroup (LowPriority selects all tasks).
// MemAssigned and PageCache are not split by priority, so minGroup is
// ignored for them.
func SeriesOf(ms *cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) *timeseries.Series {
	switch attr {
	case CPUUsage:
		return ms.CPUGroups(minGroup)
	case MemUsed:
		return ms.MemGroups(minGroup)
	case MemAssigned:
		return ms.MemAssigned
	case PageCache:
		return ms.PageCache
	}
	return nil
}

// Capacity returns the machine's capacity for the attribute.
func Capacity(m trace.Machine, attr Attribute) float64 {
	switch attr {
	case CPUUsage:
		return m.CPU
	case MemUsed, MemAssigned:
		return m.Memory
	case PageCache:
		return m.PageCache
	}
	return math.NaN()
}

// RelativeSeries returns the series divided by the machine's capacity,
// i.e. the paper's "relative usage level" in [0, 1].
//
// A machine whose capacity for the attribute is zero, negative or NaN
// has no meaningful relative level: every sample is emitted as NaN
// rather than letting v/0 leak ±Inf (or 0/0 leak incidental NaN) into
// whole-population aggregates. Population consumers — UsageSamples,
// UsageSketch, MeanRelativeUsage, the level segmentations — filter
// such samples explicitly.
func RelativeSeries(ms *cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) *timeseries.Series {
	s := SeriesOf(ms, attr, minGroup)
	c := Capacity(ms.Machine, attr)
	out := &timeseries.Series{Start: s.Start, Step: s.Step, Values: make([]float64, len(s.Values))}
	if !(c > 0) {
		for i := range out.Values {
			out.Values[i] = math.NaN()
		}
		return out
	}
	for i, v := range s.Values {
		out.Values[i] = v / c
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig 7: maximum load by capacity class

// MaxLoadsByClass groups machines by their capacity for the attribute
// and collects each machine's maximum observed load (in normalised
// units, NOT divided by capacity — the paper plots absolute normalised
// load with the capacity classes as reference lines).
func MaxLoadsByClass(machines []*cluster.MachineSeries, attr Attribute) map[float64][]float64 {
	type classMax struct {
		cap, max float64
		ok       bool
	}
	maxes := par.Map(len(machines), 0, func(i int) classMax {
		ms := machines[i]
		s := SeriesOf(ms, attr, trace.LowPriority)
		if s == nil || s.Len() == 0 {
			return classMax{}
		}
		return classMax{Capacity(ms.Machine, attr), stats.Max(s.Values), true}
	})
	out := make(map[float64][]float64)
	for _, m := range maxes {
		if m.ok {
			out[m.cap] = append(out[m.cap], m.max)
		}
	}
	return out
}

// AtCapacityFraction returns, per capacity class, the fraction of
// machines whose maximum load reached at least frac of capacity
// (the paper: ">80%/70% of low/middle-CPU hosts' maxima equal their
// capacities").
func AtCapacityFraction(machines []*cluster.MachineSeries, attr Attribute, frac float64) map[float64]float64 {
	byClass := MaxLoadsByClass(machines, attr)
	out := make(map[float64]float64, len(byClass))
	for cap, maxima := range byClass {
		hit := 0
		for _, m := range maxima {
			if m >= frac*cap {
				hit++
			}
		}
		out[cap] = float64(hit) / float64(len(maxima))
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig 9: unchanged running-queue-state durations

// CountInterval is one of the paper's running-count bins ([0,9],
// [10,19], ... [50,inf)).
type CountInterval struct{ Lo, Hi int }

// DefaultCountIntervals returns the six bins of Section IV.B.1.
func DefaultCountIntervals() []CountInterval {
	return []CountInterval{
		{0, 9}, {10, 19}, {20, 29}, {30, 39}, {40, 49}, {50, math.MaxInt32},
	}
}

// RunningStateDurations collects, across all machines, the durations
// (seconds) of maximal runs during which the (rounded) running-task
// count stays inside each interval.
func RunningStateDurations(machines []*cluster.MachineSeries, intervals []CountInterval) map[CountInterval][]float64 {
	out := make(map[CountInterval][]float64, len(intervals))
	binOf := func(count int) int {
		for bi, iv := range intervals {
			if count >= iv.Lo && count <= iv.Hi {
				return bi
			}
		}
		return -1
	}
	perMachine := par.Map(len(machines), 0, func(mi int) [][]float64 {
		run := machines[mi].Running
		if run.Len() == 0 {
			return nil
		}
		levels := make([]int, run.Len())
		for i, v := range run.Values {
			levels[i] = binOf(int(v + 0.5))
		}
		durs := make([][]float64, len(intervals))
		for _, seg := range run.SegmentsOf(levels) {
			if seg.Level < 0 {
				continue
			}
			durs[seg.Level] = append(durs[seg.Level], float64(seg.Duration))
		}
		return durs
	})
	for _, durs := range perMachine {
		for bi, ds := range durs {
			if len(ds) > 0 {
				out[intervals[bi]] = append(out[intervals[bi]], ds...)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig 10 + Tables II-III: usage levels

// UsageLevels is the number of equal usage intervals the paper uses
// ([0,0.2), [0.2,0.4), ... [0.8,1]).
const UsageLevels = 5

// LevelTrace quantises one machine's relative usage into the five
// levels (the coloured rows of Fig 10).
func LevelTrace(ms *cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) []int {
	return RelativeSeries(ms, attr, minGroup).Quantize(UsageLevels)
}

// LevelDurations collects, across machines, the durations (seconds) of
// maximal runs during which the relative usage stays inside each of
// the five levels (the rows of Tables II and III).
func LevelDurations(machines []*cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) [UsageLevels][]float64 {
	perMachine := par.Map(len(machines), 0, func(i int) [UsageLevels][]float64 {
		var durs [UsageLevels][]float64
		rel := RelativeSeries(machines[i], attr, minGroup)
		for _, seg := range rel.LevelSegments(UsageLevels) {
			// Level -1 marks NaN samples (e.g. a zero-capacity machine);
			// they belong to no usage level.
			if seg.Level < 0 {
				continue
			}
			durs[seg.Level] = append(durs[seg.Level], float64(seg.Duration))
		}
		return durs
	})
	var out [UsageLevels][]float64
	for _, durs := range perMachine {
		for lvl := range durs {
			out[lvl] = append(out[lvl], durs[lvl]...)
		}
	}
	return out
}

// UsageSamples flattens all machines' relative usage samples into one
// slice of percentages in [0, 100] (Figs 11-12 x-axis). Non-finite
// samples — a zero-capacity machine's NaN relative series, or a NaN
// usage reading — are dropped rather than clamped, so one bad machine
// cannot poison the population distribution.
func UsageSamples(machines []*cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) []float64 {
	perMachine := par.Map(len(machines), 0, func(i int) []float64 {
		rel := RelativeSeries(machines[i], attr, minGroup)
		ps := make([]float64, 0, len(rel.Values))
		for _, v := range rel.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			p := v * 100
			if p < 0 {
				p = 0
			}
			if p > 100 {
				p = 100
			}
			ps = append(ps, p)
		}
		return ps
	})
	var n int
	for _, ps := range perMachine {
		n += len(ps)
	}
	out := make([]float64, 0, n)
	for _, ps := range perMachine {
		out = append(out, ps...)
	}
	return out
}

// UsageSketch is the streaming counterpart of UsageSamples for the
// Figs 11-12 aggregations: instead of materializing every machine's
// relative usage into one population-sized slice, each machine feeds a
// fixed-bin sketch over [0, 100] percent (O(nbins) memory per machine
// — the exactness buffers are spilled up front) and the partials merge
// in machine order, so the result is deterministic for a given park.
//
// Samples are filtered and clamped exactly as UsageSamples does:
// non-finite values (zero-capacity machines, NaN readings) are counted
// in the sketch's Rejected tally instead of binned, finite values are
// clamped into [0, 100]. Quantiles/mass-count read off the sketch
// within its documented error bound (stats.Sketch); Mean and Count are
// exact.
func UsageSketch(machines []*cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup, nbins int) (*stats.Sketch, error) {
	merged, err := stats.NewSketch(nbins, 0, 100)
	if err != nil {
		return nil, err
	}
	merged.Spill()
	partials := par.Map(len(machines), 0, func(i int) *stats.Sketch {
		sk, _ := stats.NewSketch(nbins, 0, 100)
		sk.Spill()
		rel := RelativeSeries(machines[i], attr, minGroup)
		for _, v := range rel.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				sk.Add(math.NaN()) // counts toward Rejected
				continue
			}
			p := v * 100
			if p < 0 {
				p = 0
			}
			if p > 100 {
				p = 100
			}
			sk.Add(p)
		}
		return sk
	})
	for _, sk := range partials {
		// Geometry is identical by construction; Merge cannot fail.
		if err := merged.Merge(sk); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// ---------------------------------------------------------------------------
// Fig 13: noise and autocorrelation

// NoiseStats summarises per-machine noise measurements.
type NoiseStats struct {
	Min, Mean, Max float64
	N              int
}

// Noise measures each machine's relative-CPU noise with a mean filter
// of the given half-width and summarises across machines, mirroring
// the paper's min/mean/max noise comparison.
func Noise(machines []*cluster.MachineSeries, attr Attribute, half int) NoiseStats {
	perMachine := par.Map(len(machines), 0, func(i int) float64 {
		return RelativeSeries(machines[i], attr, trace.LowPriority).Noise(half)
	})
	vals := dropNaN(perMachine)
	if len(vals) == 0 {
		return NoiseStats{}
	}
	return NoiseStats{
		Min:  stats.Min(vals),
		Mean: stats.Mean(vals),
		Max:  stats.Max(vals),
		N:    len(vals),
	}
}

// SeriesNoise summarises noise over raw series (used for the synthetic
// Grid host models, which are already relative).
func SeriesNoise(series []*timeseries.Series, half int) NoiseStats {
	perSeries := par.Map(len(series), 0, func(i int) float64 {
		return series[i].Noise(half)
	})
	vals := dropNaN(perSeries)
	if len(vals) == 0 {
		return NoiseStats{}
	}
	return NoiseStats{
		Min:  stats.Min(vals),
		Mean: stats.Mean(vals),
		Max:  stats.Max(vals),
		N:    len(vals),
	}
}

// MeanAutocorrelation returns the mean lag-k autocorrelation of the
// machines' relative usage.
func MeanAutocorrelation(machines []*cluster.MachineSeries, attr Attribute, lag int) float64 {
	perMachine := par.Map(len(machines), 0, func(i int) float64 {
		return RelativeSeries(machines[i], attr, trace.LowPriority).Autocorrelation(lag)
	})
	return stats.Mean(dropNaN(perMachine))
}

// MeanSeriesAutocorrelation is the raw-series analogue for the Grid
// host models.
func MeanSeriesAutocorrelation(series []*timeseries.Series, lag int) float64 {
	perSeries := par.Map(len(series), 0, func(i int) float64 {
		return series[i].Autocorrelation(lag)
	})
	return stats.Mean(dropNaN(perSeries))
}

// CPUMemCorrelation returns the mean per-machine Pearson correlation
// between relative CPU and memory usage. Grid hosts, whose single job
// drives both, correlate strongly; Google hosts mix CPU-light services
// with CPU-heavy batch, decoupling the two signals.
func CPUMemCorrelation(machines []*cluster.MachineSeries) float64 {
	perMachine := par.Map(len(machines), 0, func(i int) float64 {
		cpu := RelativeSeries(machines[i], CPUUsage, trace.LowPriority)
		mem := RelativeSeries(machines[i], MemUsed, trace.LowPriority)
		return stats.Correlation(cpu.Values, mem.Values)
	})
	return stats.Mean(dropNaN(perMachine))
}

// MeanRelativeUsage returns the average relative usage across all
// machines and samples (the paper: CPU ~35% overall, ~20% for
// high-priority tasks; memory ~60% and ~50%).
func MeanRelativeUsage(machines []*cluster.MachineSeries, attr Attribute, minGroup trace.PriorityGroup) float64 {
	// The division by capacity dominates; compute the relative series in
	// parallel but accumulate serially in machine order so the sum's
	// floating-point association matches a plain loop exactly.
	rels := par.Map(len(machines), 0, func(i int) *timeseries.Series {
		return RelativeSeries(machines[i], attr, minGroup)
	})
	var sum float64
	var n int
	for _, rel := range rels {
		for _, v := range rel.Values {
			// Skip non-finite samples: a single zero-capacity machine
			// (NaN relative series) or ±Inf reading used to poison the
			// whole-population mean.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// dropNaN filters NaN entries, preserving order.
func dropNaN(xs []float64) []float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	return vals
}
