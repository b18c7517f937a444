// Command tracegen generates synthetic workload traces in the archive
// formats the paper's analyses consume.
//
// Google traces are produced by running the calibrated workload
// through the cluster simulator and are written in the clusterdata-v1
// three-table CSV layout (machine_events, task_events, task_usage).
// Grid traces are written in SWF (Parallel Workload Archive) or GWA
// (Grid Workload Archive) format.
//
// Usage:
//
//	tracegen -system Google -machines 50 -days 2 -out dir/
//	tracegen -system AuverGrid -days 30 -format swf -out dir/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/gtrace"
	"repro/internal/rng"
	"repro/internal/swf"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system   = fs.String("system", "Google", "Google, AuverGrid, NorduGrid, SHARCNET, ANL, RICC, MetaCentrum, LLNL-Atlas or DAS-2")
		days     = fs.Int("days", 2, "trace horizon in days")
		seed     = fs.Uint64("seed", 1, "random seed")
		machines = fs.Int("machines", 50, "Google: simulated machine count")
		format   = fs.String("format", "", "grid output format: swf (default) or gwa")
		out      = fs.String("out", ".", "output directory")
		mtbf     = fs.Int("churn-mtbf-hours", 0, "Google: machine mean time between failures (0 = no churn)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	horizon := int64(*days) * 86400
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}

	var err error
	if *system == "Google" {
		err = genGoogle(stdout, *machines, horizon, *seed, *out, int64(*mtbf)*3600)
	} else {
		f := swf.SWF
		ext := "swf"
		switch *format {
		case "", "swf":
		case "gwa":
			f, ext = swf.GWA, "gwa"
		default:
			fmt.Fprintf(stderr, "tracegen: unknown format %q\n", *format)
			return 2
		}
		err = genGrid(stdout, *system, horizon, *seed, f,
			filepath.Join(*out, fmt.Sprintf("%s.%s", *system, ext)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}
	return 0
}

func genGoogle(stdout io.Writer, machines int, horizon int64, seed uint64, out string, churnMTBF int64) error {
	s := rng.New(seed)
	park := synth.GoogleMachines(machines, s.Child("machines"))
	gcfg := synth.ScaledGoogleConfig(machines, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("workload"))
	cfg := cluster.DefaultConfig(park, horizon)
	cfg.EmitTrace = true
	if churnMTBF > 0 {
		cfg.ChurnMTBF = churnMTBF
		cfg.ChurnDowntime = 1800
	}
	res, err := cluster.Simulate(cfg, tasks, s.Child("sim"))
	if err != nil {
		return err
	}
	tr := &trace.Trace{
		System: "Google", Horizon: horizon,
		Machines: park, Events: res.Events, Usage: res.Usage,
	}
	tr.SortEvents()

	write := func(name string, enc func(f *os.File) error) error {
		path := filepath.Join(out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := enc(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return f.Close()
	}
	transitions := make([]gtrace.MachineTransition, 0, len(res.MachineEvents))
	for _, me := range res.MachineEvents {
		transitions = append(transitions, gtrace.MachineTransition{
			Time: me.Time, Machine: me.Machine, Up: me.Up,
		})
	}
	if err := write("machine_events.csv", func(f *os.File) error {
		return gtrace.EncodeMachineEvents(f, tr.Machines, transitions)
	}); err != nil {
		return err
	}
	if err := write("task_events.csv", func(f *os.File) error {
		return gtrace.EncodeEvents(f, tr.Events)
	}); err != nil {
		return err
	}
	if err := write("task_usage.csv", func(f *os.File) error {
		return gtrace.EncodeUsage(f, tr.Usage)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "google trace: %d machines, %d events, %d usage samples, abnormal %.1f%%\n",
		len(tr.Machines), len(tr.Events), len(tr.Usage), 100*res.Stats.AbnormalFraction())
	return nil
}

func genGrid(stdout io.Writer, system string, horizon int64, seed uint64, format swf.Format, path string) error {
	sys, err := synth.SystemByName(system)
	if err != nil {
		return err
	}
	jobs := sys.Generate(horizon, rng.New(seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := swf.NewWriter(f, format)
	if err := w.Header(
		fmt.Sprintf("Computer: %s (synthetic, CLUSTER'12 reproduction)", system),
		fmt.Sprintf("MaxJobs: %d", len(jobs)),
		"UnixStartTime: 0",
	); err != nil {
		return err
	}
	if err := w.WriteJobs(jobs); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d jobs)\n", path, len(jobs))
	return f.Close()
}
