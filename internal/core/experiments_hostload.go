package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/hostload"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig7 reproduces the distribution of each machine's maximum load for
// the four attributes, grouped by capacity class.
func Fig7(ctx *Context) (*Result, error) {
	res := newResult("fig7", "Distribution of maximum host load")
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	panels := []struct {
		id   string
		attr hostload.Attribute
	}{
		{"fig7a", hostload.CPUUsage},
		{"fig7b", hostload.MemUsed},
		{"fig7c", hostload.MemAssigned},
		{"fig7d", hostload.PageCache},
	}
	const bins = 40
	for _, p := range panels {
		byClass := hostload.MaxLoadsByClass(sim.Machines, p.attr)
		classes := make([]float64, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		s := report.NewSeries(p.id,
			fmt.Sprintf("PDF of normalised maximum host load (%s)", p.attr), "max load")
		h0 := stats.NewHistogram(nil, bins, 0, 1)
		s.X = h0.BinCenters()
		for _, c := range classes {
			h := stats.NewHistogram(byClass[c], bins, 0, 1)
			s.Add(fmt.Sprintf("cap=%.2f", c), h.PDF())
		}
		res.Series = append(res.Series, s)
	}

	// Headline metrics.
	atCap := hostload.AtCapacityFraction(sim.Machines, hostload.CPUUsage, 0.97)
	res.Metrics["cpu_maxload_at_capacity_cap025"] = atCap[0.25]
	res.Metrics["cpu_maxload_at_capacity_cap05"] = atCap[0.5]
	res.Metrics["cpu_maxload_at_capacity_cap1"] = atCap[1.0]
	// Iterate capacity classes in sorted order: ranging over the map
	// directly would make the floating-point mean depend on Go's
	// randomised map order and so differ run-to-run in the last ulp.
	relMaxOverCapacity := func(byClass map[float64][]float64) float64 {
		caps := make([]float64, 0, len(byClass))
		for c := range byClass {
			caps = append(caps, c)
		}
		slices.Sort(caps)
		var relMax []float64
		for _, c := range caps {
			for _, m := range byClass[c] {
				relMax = append(relMax, m/c)
			}
		}
		return stats.Mean(relMax)
	}
	res.Metrics["mem_mean_max_over_capacity"] =
		relMaxOverCapacity(hostload.MaxLoadsByClass(sim.Machines, hostload.MemUsed))
	res.Metrics["assigned_mean_max_over_capacity"] =
		relMaxOverCapacity(hostload.MaxLoadsByClass(sim.Machines, hostload.MemAssigned))
	res.Notes = append(res.Notes,
		"paper: CPU maxima near capacity (80%/70% for low/mid classes); max memory ~80% of capacity; assigned ~90%; page cache bimodal")
	return res, nil
}

// Fig8 reproduces the task events and queue state on one typical host.
func Fig8(ctx *Context) (*Result, error) {
	res := newResult("fig8", "Task events and queue state on one host")
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	// Choose the machine with median running-task occupancy.
	type occ struct {
		idx  int
		mean float64
	}
	occs := par.Map(len(sim.Machines), 0, func(i int) occ {
		return occ{i, stats.Mean(sim.Machines[i].Running.Values)}
	})
	slices.SortFunc(occs, func(a, b occ) int {
		if a.mean != b.mean {
			return cmp.Compare(a.mean, b.mean)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	pick := occs[len(occs)/2].idx
	ms := sim.Machines[pick]

	s := report.NewSeries("fig8", fmt.Sprintf("Queue state on machine %d", ms.Machine.ID), "day")
	n := ms.Running.Len()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(ms.Running.TimeAt(i)) / 86400
	}
	s.X = xs
	s.Add("running", ms.Running.Values)
	pending := sim.Pending.Values
	perHost := make([]float64, n)
	for i := 0; i < n && i < len(pending); i++ {
		perHost[i] = pending[i] / float64(len(sim.Machines))
	}
	s.Add("pending(cluster/host)", perHost)
	s.Add("finished", ms.Finished.Values)
	s.Add("abnormal", ms.Abnormal.Values)
	res.Series = append(res.Series, s)

	// Event mix on this machine plus cluster-wide completion stats.
	tbl := &report.Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("Fig 8: event counts (machine %d and cluster)", ms.Machine.ID),
		Columns: []string{"event", "machine count", "cluster count"},
	}
	for _, et := range []trace.EventType{
		trace.EventSubmit, trace.EventSchedule, trace.EventFinish,
		trace.EventEvict, trace.EventFail, trace.EventKill, trace.EventLost,
	} {
		tbl.AddRow(et.String(), fmt.Sprintf("%d", ms.EventCounts[et]),
			fmt.Sprintf("%d", sim.Stats.EventCounts[et]))
	}
	res.Tables = append(res.Tables, tbl)

	res.Metrics["abnormal_fraction"] = sim.Stats.AbnormalFraction()
	ec := sim.Stats.EventCounts
	abn := ec[trace.EventFail] + ec[trace.EventKill] + ec[trace.EventEvict] + ec[trace.EventLost]
	if abn > 0 {
		res.Metrics["fail_share_of_abnormal"] = float64(ec[trace.EventFail]) / float64(abn)
		res.Metrics["kill_share_of_abnormal"] = float64(ec[trace.EventKill]) / float64(abn)
	}
	res.Metrics["mean_running_tasks"] = stats.Mean(ms.Running.Values)
	res.Metrics["mean_pending_per_host"] = stats.Mean(perHost)
	res.Notes = append(res.Notes,
		"paper: 59.2% of completion events abnormal (50% fail, 30.7% kill); pending queue ~0")
	return res, nil
}

// Fig9 reproduces the mass-count disparity of the durations during
// which the running-queue state stays in one count interval.
func Fig9(ctx *Context) (*Result, error) {
	res := newResult("fig9", "Mass-count of unchanged queue-state durations")
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	intervals := hostload.DefaultCountIntervals()
	durs := hostload.RunningStateDurations(sim.Machines, intervals)

	tbl := &report.Table{
		ID:      "fig9",
		Title:   "Fig 9: unchanged running-queue-state durations (paper joint ratios: 11/89, 12/88, 13/87, 16/84)",
		Columns: []string{"running tasks", "segments", "joint ratio", "mm-distance (min)", "mean (min)"},
	}
	// The paper shows the four middle intervals.
	for _, iv := range intervals[1:5] {
		ds := durs[iv]
		sv := stats.NewSorted(ds)
		sum := workload.SummarizeMassCountSorted(ds, sv)
		name := fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
		tbl.AddRow(name, fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.0f/%.0f", sum.JointItems, sum.JointMass),
			report.F2(sum.MMDistance/60), report.F2(sum.Mean/60))
		res.Metrics["joint_items_"+name] = sum.JointItems

		if sum.N > 1 {
			mc := stats.NewMassCountSorted(sv)
			xsRaw, count, mass := mc.Curve(200)
			xs := make([]float64, len(xsRaw))
			for i, x := range xsRaw {
				xs[i] = x / 60 // minutes
			}
			s := report.NewSeries(fmt.Sprintf("fig9-%d-%d", iv.Lo, iv.Hi),
				fmt.Sprintf("Unchanged queue-state durations, running in %s", name), "minutes")
			s.X = xs
			s.Add("count", count)
			s.Add("mass", mass)
			res.Series = append(res.Series, s)
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"paper: skewed per the 10/90 rule; [40,49] changes fastest (smaller mm-distance)")
	return res, nil
}

// Fig10 reproduces the usage-level snapshot: quantised CPU/memory
// levels over time for a machine sample, for all tasks and for
// high-priority tasks only.
func Fig10(ctx *Context) (*Result, error) {
	res := newResult("fig10", "Snapshot of machine usage levels")
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	n := ctx.Cfg.SampleMachines
	if n > len(sim.Machines) {
		n = len(sim.Machines)
	}
	sample := sim.Machines[:n]

	panels := []struct {
		id    string
		attr  hostload.Attribute
		group trace.PriorityGroup
		title string
	}{
		{"fig10a", hostload.CPUUsage, trace.LowPriority, "CPU usage, all tasks"},
		{"fig10b", hostload.CPUUsage, trace.HighPriority, "CPU usage, high-priority tasks"},
		{"fig10c", hostload.MemUsed, trace.LowPriority, "memory usage, all tasks"},
		{"fig10d", hostload.MemUsed, trace.HighPriority, "memory usage, high-priority tasks"},
	}
	levelShares := &report.Table{
		ID:      "fig10",
		Title:   "Fig 10: share of samples per usage level (5 levels of 0.2)",
		Columns: []string{"panel", "[0,.2)", "[.2,.4)", "[.4,.6)", "[.6,.8)", "[.8,1]"},
	}
	for _, p := range panels {
		var counts [hostload.UsageLevels]int
		total := 0
		s := report.NewSeries(p.id, "Usage level trace: "+p.title, "day")
		// Quantise every machine in parallel; aggregate serially in
		// machine order so counts and exported rows are unchanged.
		traces := par.Map(len(sample), 0, func(mi int) []int {
			return hostload.LevelTrace(sample[mi], p.attr, p.group)
		})
		for mi, levels := range traces {
			ms := sample[mi]
			if mi == 0 {
				xs := make([]float64, len(levels))
				for i := range xs {
					xs[i] = float64(ms.Running.TimeAt(i)) / 86400
				}
				s.X = xs
			}
			ys := make([]float64, len(levels))
			for i, l := range levels {
				ys[i] = float64(l)
				// Level -1 marks NaN samples (zero-capacity machines);
				// they belong to no usage level and are exported as -1
				// but excluded from the level shares.
				if l < 0 {
					continue
				}
				counts[l]++
				total++
			}
			// Export a bounded number of machine rows to keep files small.
			if mi < 10 {
				s.Add(fmt.Sprintf("machine%d", ms.Machine.ID), ys)
			}
		}
		res.Series = append(res.Series, s)
		row := []string{p.title}
		for _, c := range counts {
			row = append(row, report.F2(float64(c)/float64(total)))
		}
		levelShares.AddRow(row...)
		res.Metrics["idle_share_"+p.id] = float64(counts[0]) / float64(total)
	}
	res.Tables = append(res.Tables, levelShares)
	res.Notes = append(res.Notes,
		"paper: CPU mostly idle-ish except days 21-25; memory levels high; high-priority load much lighter")
	return res, nil
}

// levelDurationTable builds the Table II/III layout for an attribute.
func levelDurationTable(ctx *Context, id, title string, attr hostload.Attribute) (*Result, error) {
	res := newResult(id, title)
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	durs := hostload.LevelDurations(sim.Machines, attr, trace.LowPriority)
	labels := []string{"[0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "[0.8,1]"}
	tbl := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"statistic", labels[0], labels[1], labels[2], labels[3], labels[4]},
	}
	avg := []string{"avg (min)"}
	max := []string{"max (min)"}
	joint := []string{"joint ratio"}
	mmd := []string{"mm-distance (min)"}
	for lvl := 0; lvl < hostload.UsageLevels; lvl++ {
		sum := workload.SummarizeMassCount(durs[lvl])
		if sum.N == 0 {
			avg = append(avg, "-")
			max = append(max, "-")
			joint = append(joint, "-")
			mmd = append(mmd, "-")
			continue
		}
		avg = append(avg, report.F2(sum.Mean/60))
		max = append(max, report.I(sum.Max/60))
		joint = append(joint, fmt.Sprintf("%.0f/%.0f", sum.JointItems, sum.JointMass))
		mmd = append(mmd, report.F2(sum.MMDistance/60))
		res.Metrics[fmt.Sprintf("avg_min_level%d", lvl)] = sum.Mean / 60
		res.Metrics[fmt.Sprintf("joint_items_level%d", lvl)] = sum.JointItems
		res.Metrics[fmt.Sprintf("mmdis_min_level%d", lvl)] = sum.MMDistance / 60
	}
	tbl.AddRow(avg...)
	tbl.AddRow(max...)
	tbl.AddRow(joint...)
	tbl.AddRow(mmd...)
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// Table2 reproduces the unchanged-CPU-usage-level duration statistics.
func Table2(ctx *Context) (*Result, error) {
	res, err := levelDurationTable(ctx, "table2",
		"Table II: continuous duration of unchanged CPU usage level (paper: avg ~6 min, joint ~26-30/74-70, mmdis 18-49 min)",
		hostload.CPUUsage)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "paper: CPU level changes roughly every 6 minutes")
	return res, nil
}

// Table3 reproduces the unchanged-memory-usage-level duration
// statistics.
func Table3(ctx *Context) (*Result, error) {
	res, err := levelDurationTable(ctx, "table3",
		"Table III: continuous duration of unchanged memory usage level (paper: avg 6-10 min, joint ~18-26, mmdis 63-351 min)",
		hostload.MemUsed)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "paper: memory levels last longer than CPU levels")
	return res, nil
}

// usageMassCount builds the Fig 11/12 analysis for an attribute.
func usageMassCount(ctx *Context, id, title string, attr hostload.Attribute) (*Result, error) {
	res := newResult(id, title)
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"task set", "mean usage (%)", "joint ratio", "mm-distance (%)"},
	}
	for _, g := range []struct {
		name  string
		group trace.PriorityGroup
	}{{"all priorities", trace.LowPriority}, {"high priority", trace.HighPriority}} {
		samples := hostload.UsageSamples(sim.Machines, attr, g.group)
		sv := stats.NewSorted(samples)
		sum := workload.SummarizeMassCountSorted(samples, sv)
		tbl.AddRow(g.name, report.F2(sum.Mean),
			fmt.Sprintf("%.0f/%.0f", sum.JointItems, sum.JointMass),
			report.F2(sum.MMDistance))
		key := "all"
		if g.group == trace.HighPriority {
			key = "high"
		}
		res.Metrics["mean_pct_"+key] = sum.Mean
		res.Metrics["joint_items_"+key] = sum.JointItems
		res.Metrics["mmdis_pct_"+key] = sum.MMDistance

		mc := stats.NewMassCountSorted(sv)
		if mc != nil {
			xs, count, mass := mc.Curve(200)
			s := report.NewSeries(id+"-"+key, title+" ("+g.name+")", "percent")
			s.X = xs
			s.Add("count", count)
			s.Add("mass", mass)
			res.Series = append(res.Series, s)
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// Fig11 reproduces the mass-count disparity of CPU usage percentages.
func Fig11(ctx *Context) (*Result, error) {
	res, err := usageMassCount(ctx, "fig11",
		"Fig 11: mass-count of CPU usage (paper: 40/60, mmdis 13%; high-pri 38/62)",
		hostload.CPUUsage)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "paper: CPU usage ~35% overall, ~20% for high-priority tasks")
	return res, nil
}

// Fig12 reproduces the mass-count disparity of memory usage
// percentages.
func Fig12(ctx *Context) (*Result, error) {
	res, err := usageMassCount(ctx, "fig12",
		"Fig 12: mass-count of memory usage (paper: 43/57, mmdis 8%; high-pri 41/59)",
		hostload.MemUsed)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "paper: memory usage ~60% overall, ~50% for high-priority tasks")
	return res, nil
}

// Fig13 reproduces the host-load comparison: per-machine CPU and
// memory usage over time for Google vs AuverGrid vs SHARCNET, plus the
// noise and autocorrelation statistics.
func Fig13(ctx *Context) (*Result, error) {
	res := newResult("fig13", "Host load comparison Google vs Grid")
	sim, err := ctx.Sim()
	if err != nil {
		return nil, err
	}
	// One representative Google machine (median CPU usage).
	type mload struct {
		idx  int
		mean float64
	}
	loads := par.Map(len(sim.Machines), 0, func(i int) mload {
		rel := hostload.RelativeSeries(sim.Machines[i], hostload.CPUUsage, trace.LowPriority)
		return mload{i, stats.Mean(rel.Values)}
	})
	slices.SortFunc(loads, func(a, b mload) int {
		if a.mean != b.mean {
			return cmp.Compare(a.mean, b.mean)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	gm := sim.Machines[loads[len(loads)/2].idx]
	gCPU := hostload.RelativeSeries(gm, hostload.CPUUsage, trace.LowPriority)
	gMem := hostload.RelativeSeries(gm, hostload.MemUsed, trace.LowPriority)

	seed := rng.New(ctx.Cfg.Seed).Child("fig13")
	agCPU, agMem := synth.GridHostSeries(synth.DefaultGridHost("AuverGrid"), ctx.Cfg.SimHorizon, seed.Child("ag"))
	snCPU, snMem := synth.GridHostSeries(synth.DefaultGridHost("SHARCNET"), ctx.Cfg.SimHorizon, seed.Child("sn"))

	// Full-range panels plus the paper's two zoom levels (days [10,15]
	// and [10,11] of a 30-day trace, expressed as horizon fractions so
	// any scale shows the same relative windows).
	zoomA := [2]float64{10.0 / 30, 15.0 / 30}
	zoomB := [2]float64{10.0 / 30, 11.0 / 30}
	emitPanels := func(id, name string, cpu, mem *timeseries.Series) {
		windows := []struct {
			suffix   string
			from, to int64
		}{
			{"", 0, ctx.Cfg.SimHorizon},
			{"-zoom5d", int64(zoomA[0] * float64(ctx.Cfg.SimHorizon)), int64(zoomA[1] * float64(ctx.Cfg.SimHorizon))},
			{"-zoom1d", int64(zoomB[0] * float64(ctx.Cfg.SimHorizon)), int64(zoomB[1] * float64(ctx.Cfg.SimHorizon))},
		}
		for _, w := range windows {
			c := cpu.Slice(w.from, w.to)
			m := mem.Slice(w.from, w.to)
			s := report.NewSeries(id+w.suffix, "Relative usage: "+name, "day")
			xs := make([]float64, c.Len())
			for i := range xs {
				xs[i] = float64(c.TimeAt(i)) / 86400
			}
			s.X = xs
			s.Add("cpu_usage", c.Values)
			s.Add("mem_usage", m.Values)
			res.Series = append(res.Series, s)
		}
	}
	emitPanels("fig13-google", "Google machine", gCPU, gMem)
	emitPanels("fig13-auvergrid", "AuverGrid host", agCPU, agMem)
	emitPanels("fig13-sharcnet", "SHARCNET host", snCPU, snMem)

	// Noise and autocorrelation across machine populations.
	gNoise := hostload.Noise(sim.Machines, hostload.CPUUsage, 2)
	nGrid := ctx.Cfg.SampleMachines
	if nGrid < 10 {
		nGrid = 10
	}
	agPop := gridHostPopulation("AuverGrid", nGrid, ctx.Cfg.SimHorizon, seed.Child("agpop"))
	snPop := gridHostPopulation("SHARCNET", nGrid, ctx.Cfg.SimHorizon, seed.Child("snpop"))
	agNoise := hostload.SeriesNoise(agPop, 2)
	snNoise := hostload.SeriesNoise(snPop, 2)

	tbl := &report.Table{
		ID:      "fig13",
		Title:   "Fig 13: CPU load noise and autocorrelation (paper: Google noise ~20x Grid)",
		Columns: []string{"system", "min noise", "mean noise", "max noise", "lag-1 autocorrelation"},
	}
	gAC := hostload.MeanAutocorrelation(sim.Machines, hostload.CPUUsage, 1)
	agAC := hostload.MeanSeriesAutocorrelation(agPop, 1)
	snAC := hostload.MeanSeriesAutocorrelation(snPop, 1)
	tbl.AddRow("Google", report.F(gNoise.Min), report.F(gNoise.Mean), report.F(gNoise.Max), report.F(gAC))
	tbl.AddRow("AuverGrid", report.F(agNoise.Min), report.F(agNoise.Mean), report.F(agNoise.Max), report.F(agAC))
	tbl.AddRow("SHARCNET", report.F(snNoise.Min), report.F(snNoise.Mean), report.F(snNoise.Max), report.F(snAC))
	res.Tables = append(res.Tables, tbl)

	res.Metrics["google_mean_noise"] = gNoise.Mean
	res.Metrics["auvergrid_mean_noise"] = agNoise.Mean
	res.Metrics["noise_ratio_google_over_auvergrid"] = gNoise.Mean / agNoise.Mean
	res.Metrics["google_autocorr"] = gAC
	res.Metrics["auvergrid_autocorr"] = agAC
	res.Metrics["google_mean_cpu_usage"] = hostload.MeanRelativeUsage(sim.Machines, hostload.CPUUsage, trace.LowPriority)
	res.Metrics["google_mean_mem_usage"] = hostload.MeanRelativeUsage(sim.Machines, hostload.MemUsed, trace.LowPriority)
	res.Metrics["google_mean_cpu_usage_highpri"] = hostload.MeanRelativeUsage(sim.Machines, hostload.CPUUsage, trace.HighPriority)
	res.Metrics["google_mean_mem_usage_highpri"] = hostload.MeanRelativeUsage(sim.Machines, hostload.MemUsed, trace.HighPriority)
	res.Metrics["google_cpu_mem_correlation"] = hostload.CPUMemCorrelation(sim.Machines)
	res.Notes = append(res.Notes,
		"paper: Grid CPU > memory and stable for hours; Google memory > CPU and volatile")
	return res, nil
}

// gridHostPopulation synthesises n independent Grid-host CPU series.
// Each host draws from its own (seed, label) child stream, so the
// hosts generate in parallel yet the population is identical to a
// serial loop.
func gridHostPopulation(system string, n int, horizon int64, s *rng.Stream) []*timeseries.Series {
	cfg := synth.DefaultGridHost(system)
	return par.Map(n, 0, func(i int) *timeseries.Series {
		cpu, _ := synth.GridHostSeries(cfg, horizon, s.Child(fmt.Sprintf("host%d", i)))
		return cpu
	})
}
