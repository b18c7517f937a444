package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The paper-batch scenario: the repository's default seed at 200
// machines, 3 simulated days and 1 workload day. It is preemption-heavy
// (400k simulated tasks, 41M placement scans, 1.3k preemptions), so the
// cluster event loop dominates the run. The scenario seed is
// fixed because preemption pressure, and with it simulator cost, is a
// property of the seed at this scale (seed 3: 7 preemptions in 3.9 s;
// seed 5: 6.6k in 20 s). The workload seed instead orders the
// experiments the CLI is asked for.
const (
	batchScenario     = 1
	batchMachines     = 200
	batchSimDays      = 3
	batchWorkloadDays = 1
	batchParallel     = 2
	batchMinRuns      = 2
)

// batchGroups are the experiments that analyse the generated workloads
// and those that analyse the simulation, in registry order.
var batchGroups = [2][]string{
	{"fig2", "fig3", "fig4", "fig5", "table1", "fig6"},
	{"fig7", "fig8", "fig9", "fig10", "table2", "table3", "fig11", "fig12", "fig13"},
}

// batchOrder is the -only list for a workload seed: each group shuffled
// by the seed, workload analyses first as in the registry, so the seed
// moves which experiment runs when but not what the run contains.
func batchOrder(seed uint64) []string {
	s := rng.New(seed).Child("perfbench.batch")
	var order []string
	for _, g := range batchGroups {
		g = append([]string(nil), g...)
		s.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		order = append(order, g...)
	}
	return order
}

// batchConfig is the core.Config the CLI flags of batchArgs select.
func batchConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = batchScenario
	cfg.Machines = batchMachines
	cfg.SimHorizon = batchSimDays * 86400
	cfg.WorkloadHorizon = batchWorkloadDays * 86400
	return cfg
}

func batchArgs(order []string, outDir, report string) []string {
	return []string{
		"-machines", strconv.Itoa(batchMachines),
		"-sim-days", strconv.Itoa(batchSimDays),
		"-workload-days", strconv.Itoa(batchWorkloadDays),
		"-parallel", strconv.Itoa(batchParallel),
		"-seed", strconv.Itoa(batchScenario),
		"-only", strings.Join(order, ","),
		"-out", outDir, "-markdown", report, "-check", "-progress",
	}
}

//go:embed golden/paper-batch.json
var goldenJSON []byte

// goldenEntry is what the paper-batch CLI run must produce. The report
// is digested per section ("report.md#<id>", "report.md#header") because
// its section order follows the -only order.
type goldenEntry struct {
	ChecksPassed int               `json:"checks_passed"`
	ChecksTotal  int               `json:"checks_total"`
	Files        map[string]string `json:"files"` // output -> sha256
}

// reportSections splits a markdown report into its header and its
// "## <id> — ..." sections, returning each section's digest (trailing
// newlines dropped: the last section ends the file) and the section
// order.
func reportSections(md []byte) (map[string]string, []string) {
	out := map[string]string{}
	var order []string
	parts := bytes.Split(md, []byte("\n## "))
	out["report.md#header"] = digest(parts[0])
	for _, p := range parts[1:] {
		id := string(bytes.Fields(p)[0])
		order = append(order, id)
		out["report.md#"+id] = digest(bytes.TrimRight(p, "\n"))
	}
	return out, order
}

var (
	progressRe = regexp.MustCompile(`^progress: (\S+) done in`)
	checksRe   = regexp.MustCompile(`(?m)^(\d+)/(\d+) checks passed$`)
)

// batchRun is one measured CLI invocation.
type batchRun struct {
	wall   time.Duration
	cpu    time.Duration
	ready  []time.Duration // when each experiment's completion was reported
	rssMB  float64
	digest goldenEntry
	order  []string // the report's section order
}

// runCLI runs the paper-batch CLI once with the experiments in order
// and digests what it wrote. Exit code 1 is the -check verdict on
// claims that miss their band at this scale, not a failure of the run;
// the pass count is compared with the golden record instead.
func runCLI(bin, dir string, order []string) (batchRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return batchRun{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return batchRun{}, err
	}
	out, report := filepath.Join(dir, "out"), filepath.Join(dir, "report.md")
	var stdout bytes.Buffer
	c, err := startChild(filepath.Join(bin, "repro"), batchArgs(order, out, report), &stdout, filepath.Join(dir, "stderr.log"))
	if err != nil {
		return batchRun{}, err
	}
	e, err := c.wait(170 * time.Second)
	if err != nil {
		return batchRun{}, err
	}
	if e.code != 0 && e.code != 1 {
		return batchRun{}, fmt.Errorf("repro exited %d (see %s)", e.code, filepath.Join(dir, "stderr.log"))
	}
	r := batchRun{wall: e.wall, cpu: e.cpu, rssMB: e.rssMB}
	for _, ln := range c.stderr.matching(progressRe) {
		r.ready = append(r.ready, ln.at)
	}
	m := checksRe.FindStringSubmatch(stdout.String())
	if m == nil {
		return r, fmt.Errorf("repro printed no check summary")
	}
	r.digest.ChecksPassed, _ = strconv.Atoi(m[1])
	r.digest.ChecksTotal, _ = strconv.Atoi(m[2])
	if e.code == 1 && r.digest.ChecksPassed == r.digest.ChecksTotal {
		return r, fmt.Errorf("repro exited 1 with every check passing")
	}
	r.digest.Files, err = digestFiles(out)
	if err != nil {
		return r, err
	}
	md, err := os.ReadFile(report)
	if err != nil {
		return r, err
	}
	sections, sectionOrder := reportSections(md)
	for k, v := range sections {
		r.digest.Files[k] = v
	}
	r.order = sectionOrder
	return r, nil
}

func digestFiles(dir string) (map[string]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = digest(b)
	}
	return out, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares a run's outputs with the golden record and its
// report's section order with the order asked for.
func checkGolden(want goldenEntry, got batchRun, order []string) []string {
	var bad []string
	if got.digest.ChecksPassed < want.ChecksPassed || got.digest.ChecksTotal != want.ChecksTotal {
		bad = append(bad, fmt.Sprintf("%d/%d checks passed, recorded %d/%d",
			got.digest.ChecksPassed, got.digest.ChecksTotal, want.ChecksPassed, want.ChecksTotal))
	}
	names := map[string]bool{}
	for n := range want.Files {
		names[n] = true
	}
	for n := range got.digest.Files {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if got.digest.Files[n] != want.Files[n] {
			bad = append(bad, fmt.Sprintf("%s digest %.12s, recorded %.12s", n, got.digest.Files[n], want.Files[n]))
		}
	}
	if strings.Join(got.order, ",") != strings.Join(order, ",") {
		bad = append(bad, fmt.Sprintf("report sections in order %v, asked for %v", got.order, order))
	}
	return bad
}

func loadGolden() (goldenEntry, error) {
	var g goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden/paper-batch.json: %w", err)
	}
	return g, nil
}

// recordGolden runs the CLI once in registry order and writes the
// golden record to perfbench/golden/paper-batch.json. Run it from the
// repository root, only after a change that is meant to alter outputs.
func recordGolden(bin, work string, log io.Writer) error {
	r, err := runCLI(bin, filepath.Join(work, "golden"), paperIDs)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%d outputs, %d/%d checks, %.1fs\n", len(r.digest.Files),
		r.digest.ChecksPassed, r.digest.ChecksTotal, r.wall.Seconds())
	b, err := json.MarshalIndent(r.digest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "golden", "paper-batch.json"), append(b, '\n'), 0o644)
}

// runBatch measures paper-batch: the CLI is run back to back until the
// run's time is used (at least batchMinRuns times). setup_s is the time
// until the first experiment reports completion; p50/p99 are over the
// times at which each of the 15 artifacts became ready.
func runBatch(b *bench) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	order := batchOrder(b.seed)
	if b.trace {
		return traceBatch(b, order, golden)
	}
	var walls, cpus, firsts, readies, rss sample
	t0 := time.Now()
	for i := 0; i < batchMinRuns || time.Since(t0) < b.seconds; i++ {
		r, err := runCLI(b.bin, filepath.Join(b.work, "cli"), order)
		if err != nil {
			return err
		}
		bad := checkGolden(golden, r, order)
		for _, p := range bad {
			b.problem("%s", p)
		}
		b.op(len(bad) == 0 && len(r.ready) == len(paperIDs))
		if len(r.ready) != len(paperIDs) {
			b.problem("repro reported %d of %d experiments done", len(r.ready), len(paperIDs))
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		firsts = append(firsts, r.ready[0].Seconds())
		for _, d := range r.ready {
			readies = append(readies, ms(d))
		}
		rss = append(rss, r.rssMB)
	}
	if len(walls) == 0 {
		return fmt.Errorf("no CLI run completed")
	}
	n := fmt.Sprintf("n=%d runs", len(walls))
	b.set("setup_s", firsts.median(), "median time to first artifact, "+n)
	b.set("wall_s", walls.median(), "median CLI wall, "+n)
	b.set("cpu_s", cpus.median(), "median CLI user+system CPU, "+n)
	b.set("p50_ms", readies.q(0.5), fmt.Sprintf("artifact-ready time since launch, n=%d", len(readies)))
	b.set("p90_ms", readies.q(0.9), fmt.Sprintf("artifact-ready time since launch, n=%d", len(readies)))
	b.set("peak_rss_mb", rss.median(), "median over "+n)
	return nil
}

// traceBatch is paper-batch's traced pass: one untraced CLI run (the
// base of the overhead ratio and the oracle), then the same scenario
// built layer by layer in process and rendered, whose bytes must equal
// what the CLI wrote.
func traceBatch(b *bench, order []string, golden goldenEntry) error {
	r, err := runCLI(b.bin, filepath.Join(b.work, "cli"), order)
	if err != nil {
		return err
	}
	bad := checkGolden(golden, r, order)
	for _, p := range bad {
		b.problem("%s", p)
	}
	b.op(len(bad) == 0)

	cfg := batchConfig()
	t := &tracer{}
	reg := obs.NewRegistry()
	bt, err := tracedBuild(t, cfg, batchParallel, reg)
	if err != nil {
		return err
	}
	rs, err := renderAll(t, cfg, bt.results)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for _, x := range rs {
		switch x.kind {
		case "csv", "dat":
			got[filepath.Base(x.path)+"."+x.kind] = digest(x.body)
		case "report":
			sections, _ := reportSections(x.body)
			for k, v := range sections {
				got[k] = v
			}
		}
	}
	mismatched := 0
	for name, want := range golden.Files {
		if got[name] != want {
			mismatched++
			b.problem("traced pass rendered %s differently from the CLI", name)
		}
	}
	b.op(mismatched == 0)
	if direct := counterValue(reg, "cluster.events_dispatched"); direct != float64(bt.simEvents) {
		b.problem("direct simulation dispatched %.0f events, core's %d: the traced inputs differ", direct, bt.simEvents)
	}
	setBuildMetrics(b, t, []buildTrace{bt}, reg)
	setRenderMetrics(b, t, rs)
	b.set("par.busy_ratio", bt.busyRatio, fmt.Sprintf("base: %d workers × wall of the warm-up run", batchParallel))
	setShares(b, t)
	b.set("obs.trace_overhead_ratio", ratio(t.wall().Seconds(), r.wall.Seconds()),
		fmt.Sprintf("base: untraced CLI wall %.3fs (traced pass is serial)", r.wall.Seconds()))
	return writeSpans(filepath.Join(b.work, "spans.jsonl"), t)
}
