// Command simulate runs the Google-cluster discrete-event simulation
// and prints host-load statistics: utilisation, noise, queue states,
// event mix and placement behaviour.
//
// Usage:
//
//	simulate [-machines 100] [-days 4] [-seed 1]
//	         [-placement balanced|best-fit|random] [-no-preemption]
//	         [-churn-mtbf-hours 0] [-churn-downtime-min 30]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/hostload"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machines  = fs.Int("machines", 100, "machine count")
		days      = fs.Int("days", 4, "horizon in days")
		seed      = fs.Uint64("seed", 1, "random seed")
		placement = fs.String("placement", "balanced", "balanced, best-fit or random")
		noPreempt = fs.Bool("no-preemption", false, "disable priority preemption")
		mtbfHours = fs.Int("churn-mtbf-hours", 0, "machine mean time between failures (0 = no churn)")
		downMin   = fs.Int("churn-downtime-min", 30, "machine mean downtime in minutes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	horizon := int64(*days) * 86400
	s := rng.New(*seed)
	park := synth.GoogleMachines(*machines, s.Child("machines"))
	gcfg := synth.ScaledGoogleConfig(*machines, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("workload"))

	cfg := cluster.DefaultConfig(park, horizon)
	switch *placement {
	case "balanced":
		cfg.Placement = cluster.Balanced
	case "best-fit":
		cfg.Placement = cluster.BestFit
	case "random":
		cfg.Placement = cluster.Random
	default:
		fmt.Fprintf(stderr, "simulate: unknown placement %q\n", *placement)
		return 2
	}
	cfg.Preemption = !*noPreempt
	if *mtbfHours > 0 {
		cfg.ChurnMTBF = int64(*mtbfHours) * 3600
		cfg.ChurnDowntime = int64(*downMin) * 60
	}

	res, err := cluster.Simulate(cfg, tasks, s.Child("sim"))
	if err != nil {
		fmt.Fprintf(stderr, "simulate: %v\n", err)
		return 1
	}

	var events, terminal int
	for e, n := range res.Stats.EventCounts {
		events += n
		if e.Terminal() {
			terminal += n
		}
	}
	fmt.Fprintf(stdout, "simulated %d machines for %d day(s): %d tasks, %d attempts, %d events\n\n",
		*machines, *days, res.Stats.TasksSubmitted, res.Stats.Attempts, events)

	evt := &report.Table{
		ID: "events", Title: "Event mix",
		Columns: []string{"event", "count", "share of terminal"},
	}
	for _, e := range []trace.EventType{
		trace.EventSubmit, trace.EventSchedule, trace.EventFinish,
		trace.EventFail, trace.EventKill, trace.EventEvict, trace.EventLost,
	} {
		share := "-"
		if e.Terminal() && terminal > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(res.Stats.EventCounts[e])/float64(terminal))
		}
		evt.AddRow(e.String(), fmt.Sprintf("%d", res.Stats.EventCounts[e]), share)
	}
	if err := evt.Render(stdout); err != nil {
		return 1
	}
	fmt.Fprintf(stdout, "abnormal completion fraction: %.3f (paper: 0.592)\n", res.Stats.AbnormalFraction())
	fmt.Fprintf(stdout, "preemptions: %d, never scheduled: %d, machine failures: %d\n\n",
		res.Stats.Preemptions, res.Stats.NeverScheduled, res.Stats.MachineFailures)

	load := &report.Table{
		ID: "load", Title: "Host load summary",
		Columns: []string{"metric", "value"},
	}
	cpuMean := hostload.MeanRelativeUsage(res.Machines, hostload.CPUUsage, trace.LowPriority)
	memMean := hostload.MeanRelativeUsage(res.Machines, hostload.MemUsed, trace.LowPriority)
	cpuHigh := hostload.MeanRelativeUsage(res.Machines, hostload.CPUUsage, trace.HighPriority)
	noise := hostload.Noise(res.Machines, hostload.CPUUsage, 2)
	var running []float64
	for _, m := range res.Machines {
		running = append(running, stats.Mean(m.Running.Values))
	}
	load.AddRow("mean CPU usage (relative)", report.F2(cpuMean))
	load.AddRow("mean memory usage (relative)", report.F2(memMean))
	load.AddRow("mean CPU usage, high priority", report.F2(cpuHigh))
	load.AddRow("mean running tasks per host", report.F2(stats.Mean(running)))
	load.AddRow("CPU noise min/mean/max", fmt.Sprintf("%s / %s / %s",
		report.F(noise.Min), report.F(noise.Mean), report.F(noise.Max)))
	load.AddRow("CPU lag-1 autocorrelation", report.F(hostload.MeanAutocorrelation(res.Machines, hostload.CPUUsage, 1)))
	if err := load.Render(stdout); err != nil {
		return 1
	}
	return 0
}
