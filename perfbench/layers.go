package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// buildTrace is what one traced scenario build measured.
type buildTrace struct {
	results    []*core.Result
	googleN    int // tasks generated (workload + simulation)
	simHorizon int64
	cellBuilds int64
	busyRatio  float64 // experiment busy time / (workers × wall) while warming
	simEvents  int64   // cluster.events_dispatched as counted inside core
}

// tracedBuild builds one scenario layer by layer with a span around
// each public call, in the order core needs the artifacts: synth
// generates the Google and Grid workloads and the simulation input,
// cluster simulates it, and core's 15 experiments analyse the result.
//
// core's cells cannot be handed prebuilt inputs, so the core context
// is warmed by running the experiments once through core.RunExperiments
// (which generates and simulates again). That warm-up is a "skip" span:
// it counts for no layer, but it measures the pipeline's worker busy
// ratio. The experiment spans then time each analysis on warm cells.
func tracedBuild(t *tracer, cfg core.Config, workers int, reg *obs.Registry) (buildTrace, error) {
	bt := buildTrace{simHorizon: cfg.SimHorizon}
	seed := rng.New(cfg.Seed)

	var wlTasks, simTasks []trace.Task
	t.do("synth", "synth.google_tasks", func() {
		gcfg := synth.DefaultGoogleConfig(cfg.WorkloadHorizon)
		gcfg.MaxTasksPerJob = cfg.WorkloadMaxTasksPerJob
		wlTasks = synth.GenerateGoogleTasks(gcfg, rng.New(cfg.Seed).Child("google-workload"))
	})
	t.do("synth", "synth.google_jobs", func() { synth.GoogleJobsFromTasks(wlTasks) })
	for _, sys := range synth.GridSystems {
		t.do("synth", "synth.grid_jobs."+sys.Name, func() {
			sys.Generate(cfg.WorkloadHorizon, rng.New(cfg.Seed).Child("grid-"+sys.Name))
		})
	}
	var machines []trace.Machine
	t.do("synth", "synth.machines", func() { machines = synth.GoogleMachines(cfg.Machines, seed.Child("machines")) })
	t.do("synth", "synth.google_tasks", func() {
		simTasks = synth.GenerateGoogleTasks(synth.ScaledGoogleConfig(cfg.Machines, cfg.SimHorizon), seed.Child("google-sim"))
	})
	bt.googleN = len(wlTasks) + len(simTasks)

	var simErr error
	t.do("cluster", "cluster.simulate", func() {
		ccfg := cluster.DefaultConfig(machines, cfg.SimHorizon)
		ccfg.Metrics = reg
		_, simErr = cluster.SimulateCtx(context.Background(), ccfg, simTasks, seed.Child("sim"))
	})
	if simErr != nil {
		return bt, simErr
	}

	c := core.NewContext(cfg)
	rec := obs.NewRecorder()
	c.SetRecorder(rec)
	var warmErr error
	t.do("skip", "core.warm", func() {
		exps := core.Experiments()
		durs := make([]time.Duration, len(exps))
		timed := make([]core.Experiment, len(exps))
		for i, e := range exps {
			timed[i] = core.Experiment{ID: e.ID, Title: e.Title, Run: func(c *core.Context) (*core.Result, error) {
				start := time.Now()
				r, err := e.Run(c)
				durs[i] = time.Since(start)
				return r, err
			}}
		}
		start := time.Now()
		_, warmErr = core.RunExperiments(context.Background(), c, timed, core.RunOptions{Workers: workers})
		wall := time.Since(start)
		var busy time.Duration
		for _, d := range durs {
			busy += d
		}
		bt.busyRatio = float64(busy) / (float64(workers) * float64(wall))
	})
	if warmErr != nil {
		return bt, warmErr
	}
	for _, m := range rec.Registry().Snapshot() {
		if strings.HasPrefix(m.Name, "core.cell.") && strings.HasSuffix(m.Name, ".miss") {
			bt.cellBuilds += int64(m.Value)
		}
		if m.Name == "cluster.events_dispatched" {
			bt.simEvents = int64(m.Value)
		}
	}

	for _, e := range core.Experiments() {
		var r *core.Result
		var err error
		t.do("core", "core.exp."+e.ID, func() { r, err = e.Run(c) })
		if err != nil {
			return bt, fmt.Errorf("%s: %w", e.ID, err)
		}
		bt.results = append(bt.results, r)
	}
	return bt, nil
}

// setBuildMetrics reports the synth, cluster and core metrics of the
// traced builds, summed over builds; the cluster counts come from reg,
// the registry every traced simulation was given.
func setBuildMetrics(b *bench, t *tracer, bts []buildTrace, reg *obs.Registry) {
	var tasks int
	var simSecs float64
	var cells int64
	for _, bt := range bts {
		tasks += bt.googleN
		simSecs += float64(bt.simHorizon)
		cells += bt.cellBuilds
	}
	gt := t.total("synth.google_tasks").Seconds()
	b.set("synth.google_tasks_s", gt, fmt.Sprintf("%d generations", t.count("synth.google_tasks")))
	b.set("synth.grid_jobs_s", t.total("synth.grid_jobs.*").Seconds(), fmt.Sprintf("%d systems", t.count("synth.grid_jobs.*")))
	b.set("synth.tasks_per_s", ratio(float64(tasks), gt), fmt.Sprintf("base: %d Google tasks / %.3fs", tasks, gt))

	simS := t.total("cluster.simulate").Seconds()
	events := counterValue(reg, "cluster.events_dispatched")
	scans := counterValue(reg, "cluster.machine_scans")
	submitted := counterValue(reg, "cluster.tasks_submitted")
	b.set("cluster.sim_s", simS, fmt.Sprintf("%d simulations", t.count("cluster.simulate")))
	b.set("cluster.sim_speed", ratio(simSecs, simS), fmt.Sprintf("base: %.0f simulated s / %.3f wall s", simSecs, simS))
	b.set("cluster.events_dispatched", events, "")
	b.set("cluster.machine_scans", scans, "")
	b.set("cluster.scans_per_task", ratio(scans, submitted), fmt.Sprintf("base: %.0f tasks submitted", submitted))
	b.set("cluster.preemptions", counterValue(reg, "cluster.preemptions"), "")

	var analysis float64
	for _, id := range paperIDs {
		v := t.total("core.exp." + id).Seconds()
		analysis += v
		b.set("core.exp."+id+"_s", v, "")
	}
	b.set("core.analysis_s", analysis, fmt.Sprintf("sum of %d experiment runs on warm cells", t.count("core.exp.*")))
	b.set("core.cell_builds", float64(cells), "core.cell.*.miss while warming")
}

func counterValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// rendered is one artifact variant as the batch path renders it.
type rendered struct {
	kind string // json, md, csv, dat or report
	path string // the daemon path serving these bytes, relative to /v1
	body []byte
}

// renderAll renders every variant the daemon serves for results —
// JSON and markdown per artifact, every table as CSV, every series as
// .dat, and the markdown report — with the renderers the CLI and the
// daemon share. With a tracer each render is a span in layer render.
func renderAll(t *tracer, cfg core.Config, results []*core.Result) ([]rendered, error) {
	var out []rendered
	var err error
	step := func(kind, path string, fn func(*bytes.Buffer) error) {
		if err != nil {
			return
		}
		var buf bytes.Buffer
		run := func() { err = fn(&buf) }
		if t != nil {
			t.do("render", "render."+kind, run)
		} else {
			run()
		}
		out = append(out, rendered{kind: kind, path: path, body: buf.Bytes()})
	}
	for _, r := range results {
		step("json", "/artifacts/"+r.ID, func(w *bytes.Buffer) error {
			b, err := json.Marshal(r)
			w.Write(b)
			return err
		})
		step("md", "/artifacts/"+r.ID+"?format=md", func(w *bytes.Buffer) error { return core.WriteResultMarkdown(w, r) })
		for _, tbl := range r.Tables {
			step("csv", "/artifacts/"+r.ID+"/tables/"+tbl.ID, func(w *bytes.Buffer) error { return tbl.WriteCSV(w) })
		}
		for _, s := range r.Series {
			step("dat", "/artifacts/"+r.ID+"/series/"+s.ID, func(w *bytes.Buffer) error { return s.WriteDAT(w) })
		}
	}
	step("report", "/report", func(w *bytes.Buffer) error {
		return core.WriteMarkdownReport(w, cfg, results, []report.TimingRow(nil))
	})
	return out, err
}

// setRenderMetrics reports the mean time per render call of each kind
// and the bytes rendered.
func setRenderMetrics(b *bench, t *tracer, rs []rendered) {
	var total int
	for _, r := range rs {
		total += len(r.body)
	}
	for _, k := range []string{"json", "md", "csv", "dat", "report"} {
		n := t.count("render." + k)
		b.set("render."+k+"_us", ratio(us(t.total("render."+k)), float64(n)), fmt.Sprintf("mean of n=%d renders", n))
	}
	b.set("render.bytes", float64(total), fmt.Sprintf("%d rendered variants", len(rs)))
}

// setShares reports each layer's self time and its share of the traced
// pass's wall time (skipped warm-up excluded).
func setShares(b *bench, t *tracer) {
	self := t.selfTimes()
	wall := t.wall()
	for _, l := range layers {
		b.set("self."+l+"_s", self[l].Seconds(), "")
		b.set("share."+l, ratio(float64(self[l]), float64(wall)), fmt.Sprintf("base: traced wall %.3fs", wall.Seconds()))
	}
	for l := range self {
		if !slices.Contains(layers, l) {
			b.problem("span layer %q is not a known layer", l)
		}
	}
}
