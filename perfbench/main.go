// Command perfbench is the repository's benchmark. It drives the
// programs a user runs — the repro CLI and the reprod daemon — on three
// workloads, checks every output against an oracle, and prints one
// JSON result line. With -trace 1 it instead makes a traced pass that
// times calls into each layer (synth, cluster, core, rendering, ckpt,
// serve) from the benchmark's own code and reports per-layer metrics.
//
// It is normally run through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	paper-batch  repro runs all 15 experiments on a preemption-heavy scenario
//	serve-hot    open-loop requests against a prewarmed daemon (no builds)
//	serve-cold   closed loop of fresh scenarios against an empty checkpoint dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user sees, measured with tracing off.
// Every workload reports all of them, each a median over the run or,
// for cpu_s, a total per unit of work. cpu_s is the process's user+system time, which time stolen from a
// shared host's vCPUs does not inflate the way it inflates wall time:
//
//	             paper-batch               serve-hot                  serve-cold
//	setup_s      launch to first artifact  launch to healthz+prewarm  same, empty checkpoint dir
//	wall_s       one CLI run               one closed-loop mix pass   one scenario, 30 requests
//	cpu_s        CPU of that CLI run       daemon CPU per pass        daemon CPU per scenario
//	p50/p90_ms   artifact-ready times      closed-loop requests       cold requests
//	peak_rss_mb  the CLI                   the daemon                 the daemon
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"synth.google_tasks_s", "s", "lower"},
		{"synth.grid_jobs_s", "s", "lower"},
		{"synth.tasks_per_s", "1/s", "higher"},
		{"cluster.sim_s", "s", "lower"},
		{"cluster.sim_speed", "sim-s/s", "higher"},
		{"cluster.events_dispatched", "count", "lower"},
		{"cluster.machine_scans", "count", "lower"},
		{"cluster.scans_per_task", "ratio", "lower"},
		{"cluster.preemptions", "count", "lower"},
	}
	for _, id := range paperIDs {
		m = append(m, metricSpec{"core.exp." + id + "_s", "s", "lower"})
	}
	m = append(m, []metricSpec{
		{"core.analysis_s", "s", "lower"},
		{"core.cell_builds", "count", "lower"},
		{"par.busy_ratio", "ratio", "higher"},
		{"render.json_us", "us", "lower"},
		{"render.md_us", "us", "lower"},
		{"render.csv_us", "us", "lower"},
		{"render.dat_us", "us", "lower"},
		{"render.report_us", "us", "lower"},
		{"render.bytes", "bytes", "lower"},
		{"ckpt.save_us", "us", "lower"},
		{"ckpt.load_us", "us", "lower"},
		{"ckpt.bytes", "bytes", "lower"},
		{"ckpt.hit_ratio", "ratio", "higher"},
	}...)
	for _, k := range handlerKinds {
		m = append(m, metricSpec{"serve.handler_us." + k, "us", "lower"})
	}
	m = append(m, []metricSpec{
		{"serve.net_us", "us", "lower"},
		{"serve.gate_wait_us", "us", "lower"},
		{"serve.gate.rejected", "count", "lower"},
		{"serve.coalesced_ratio", "ratio", "higher"},
		{"serve.ctx_lru_hit_ratio", "ratio", "higher"},
		{"gen.low_p50_ms", "ms", "lower"},
		{"gen.low_p99_ms", "ms", "lower"},
		{"gen.high_p50_ms", "ms", "lower"},
		{"gen.high_p99_ms", "ms", "lower"},
		{"gen.late_p99_ms", "ms", "lower"},
		{"gen.max_rps", "1/s", "higher"},
		{"obs.trace_overhead_ratio", "ratio", "lower"},
	}...)
	for _, l := range layers {
		m = append(m, metricSpec{"self." + l + "_s", "s", "lower"})
		m = append(m, metricSpec{"share." + l, "ratio", "lower"})
	}
	return m
}()

// paperIDs are the 15 paper experiments, in registry order.
var paperIDs = []string{"fig2", "fig3", "fig4", "fig5", "table1", "fig6", "fig7",
	"fig8", "fig9", "fig10", "table2", "table3", "fig11", "fig12", "fig13"}

// handlerKinds are the request variants of the hot mix.
var handlerKinds = []string{"json", "md", "csv", "dat", "report", "304"}

// layers are the owners of self time in a traced pass.
var layers = []string{"synth", "cluster", "core", "render", "ckpt", "serve"}

// bench is one invocation: its settings and everything it measured.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the repro and reprod binaries
	work     string // scratch directory for this invocation

	vals  map[string]float64
	notes map[string]string // sample count or ratio base, for the report

	mu        sync.Mutex // guards the counts below: load goroutines share them
	attempted int64
	failed    int64
	problems  []string
}

// set records a metric with a note on its base or sample count.
func (b *bench) set(name string, v float64, note string) {
	b.vals[name] = v
	if note != "" {
		b.notes[name] = note
	}
}

// problem records a correctness failure; the result then reads
// correct=false.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
	}
}

var workloads = map[string]func(*bench) error{
	"paper-batch": runBatch,
	"serve-hot":   runHot,
	"serve-cold":  runCold,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-batch, serve-hot or serve-cold")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 12, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1: traced pass with per-layer metrics instead of end-to-end metrics")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the repro and reprod binaries")
	work := fs.String("work", ".bench_build/work", "scratch directory for outputs")
	record := fs.Bool("record-golden", false, "record the paper-batch digests for every scenario seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordGolden(*bin, *work, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload paper-batch|serve-hot|serve-cold, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		bin:      *bin,
		work:     filepath.Join(*work, *workload),
		vals:     map[string]float64{},
		notes:    map[string]string{},
	}
	if err := os.RemoveAll(b.work); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	steal0, total0 := hostTimes()
	if err := run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	steal1, total1 := hostTimes()
	b.notes["host.steal"] = fmt.Sprintf("%.1f%% of the host's CPU time was stolen from this VM during the run",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	specs := endToEnd
	if b.trace {
		specs = perLayer
	}
	res, err := b.result(specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	printReport(stdout, b, specs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output line. An end-to-end metric the workload
// did not measure is a bug in the benchmark; a per-layer metric the
// workload does not reach reads 0.
func (b *bench) result(specs []metricSpec) (result, error) {
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := b.vals[s.Name]
		if !ok && !b.trace {
			return res, fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// printReport prints every metric by name with its unit and, for a
// timing its sample count, for a ratio its base.
func printReport(w io.Writer, b *bench, specs []metricSpec) {
	mode := "end-to-end (tracing off)"
	if b.trace {
		mode = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f: %s\n", b.workload, b.seed, b.seconds.Seconds(), mode)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", s.Name, b.vals[s.Name], s.Unit, b.notes[s.Name])
	}
	var extra []string
	for k := range b.notes {
		if _, listed := b.vals[k]; !listed {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-28s %s\n", k, b.notes[k])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d checks_failed=%d\n", b.attempted, b.failed, len(b.problems))
	if len(b.problems) > 0 {
		fmt.Fprintf(w, "  first failed check: %s\n", strings.TrimSpace(b.problems[0]))
	}
}

// ms and us convert durations to the report's units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostTimes returns the steal and total jiffies of the "cpu" line of
// /proc/stat (0, 0 where it is unreadable): steal is time the
// hypervisor ran something else while this VM wanted its vCPUs.
func hostTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
