package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestBuildRetryRecoversFromPanic: a panic injected into the first sim
// build attempt is isolated, retried with seeded backoff, and the
// retried build produces the identical simulation (fresh child streams
// per attempt make rebuilds deterministic).
func TestBuildRetryRecoversFromPanic(t *testing.T) {
	cfg := tinyConfig()
	clean := NewContext(cfg)
	want, err := clean.Sim()
	if err != nil {
		t.Fatalf("fault-free Sim: %v", err)
	}

	ctx := NewContext(cfg)
	rec := obs.NewRecorder()
	ctx.SetRecorder(rec)
	restore := fault.Enable(fault.NewPlan(fault.Rule{Site: "core.build.sim", Hit: 1, Kind: fault.Panic}))
	defer restore()
	got, err := ctx.Sim()
	if err != nil {
		t.Fatalf("Sim under injected panic: %v", err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Machines, want.Machines) {
		t.Fatal("retried build differs from fault-free build")
	}
	reg := rec.Registry()
	if got := reg.Counter("core.build.sim.failure").Value(); got != 1 {
		t.Errorf("core.build.sim.failure = %d, want 1", got)
	}
	if got := reg.Counter("core.build.sim.retry_success").Value(); got != 1 {
		t.Errorf("core.build.sim.retry_success = %d, want 1", got)
	}
}

// TestBuildFailsAfterBoundedRetries: a fault armed on every call
// exhausts the retry budget and surfaces an attempt-counted error.
func TestBuildFailsAfterBoundedRetries(t *testing.T) {
	ctx := NewContext(tinyConfig())
	ctx.SetBuildRetries(1)
	restore := fault.Enable(fault.NewPlan(fault.Rule{Site: "core.build.google_tasks", Kind: fault.Error}))
	defer restore()
	_, err := ctx.GoogleTasks()
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want attempt-counted failure", err)
	}
	var inj *fault.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want wrapped injected error", err)
	}
}

// TestCancelledBuildNotMemoized: a build aborted by ctx cancellation
// must not poison the cell — the next caller with a live context gets
// a real artifact.
func TestCancelledBuildNotMemoized(t *testing.T) {
	base := NewContext(tinyConfig())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.WithContext(cancelled).Sim(); !isCtxErr(err) {
		t.Fatalf("Sim with cancelled ctx: err = %v, want ctx error", err)
	}
	if res, err := base.Sim(); err != nil || res == nil {
		t.Fatalf("Sim after cancelled attempt: res=%v err=%v, want rebuilt artifact", res, err)
	}
}

// TestSimErrorStillMemoizedWithRetries: a non-ctx error is memoized
// after the retry budget drains (invocations == attempts, not callers).
func TestSimErrorStillMemoizedWithRetries(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	ctx := NewContext(QuickConfig())
	ctx.SetBuildRetries(2)
	ctx.simulate = func(context.Context, cluster.Config, []trace.Task, *rng.Stream) (*cluster.Result, error) {
		calls++
		return nil, boom
	}
	for i := 0; i < 4; i++ {
		if _, err := ctx.Sim(); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 3 {
		t.Fatalf("simulate invoked %d times, want 3 (1 + 2 retries), memoized after", calls)
	}
}

// TestPerExperimentDeadline: an experiment that honours its context is
// cut off by ExpTimeout while its neighbours complete untouched.
func TestPerExperimentDeadline(t *testing.T) {
	ok := Experiment{ID: "ok", Title: "ok", Run: func(*Context) (*Result, error) {
		return newResult("ok", "ok"), nil
	}}
	slow := Experiment{ID: "slow", Title: "slow", Run: func(c *Context) (*Result, error) {
		select {
		case <-c.Ctx().Done():
			return nil, c.Ctx().Err()
		case <-time.After(10 * time.Second):
			return newResult("slow", "slow"), nil
		}
	}}
	results, err := RunExperiments(context.Background(), NewContext(QuickConfig()),
		[]Experiment{ok, slow, ok}, RunOptions{Workers: 1, ExpTimeout: 20 * time.Millisecond, KeepGoing: true})
	if err != nil {
		t.Fatalf("err = %v, want nil under keep-going", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Failed() || results[2].Failed() {
		t.Fatal("neighbours of the slow experiment failed")
	}
	if !results[1].Failed() || !strings.Contains(results[1].Err, "deadline") {
		t.Fatalf("slow result = %+v, want deadline failure", results[1])
	}
}

// TestKeepGoingAnnotatesFailures: errors and panics both degrade to
// placeholder results; the run completes with a nil error.
func TestKeepGoingAnnotatesFailures(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "a", Title: "a", Run: func(*Context) (*Result, error) { return newResult("a", "a"), nil }},
		{ID: "b", Title: "b", Run: func(*Context) (*Result, error) { return nil, boom }},
		{ID: "c", Title: "c", Run: func(*Context) (*Result, error) { panic("kaboom") }},
		{ID: "d", Title: "d", Run: func(*Context) (*Result, error) { return newResult("d", "d"), nil }},
	}
	for _, workers := range []int{1, 4} {
		c := NewContext(QuickConfig())
		rec := obs.NewRecorder()
		c.SetRecorder(rec)
		results, err := RunExperiments(context.Background(), c, exps, RunOptions{Workers: workers, KeepGoing: true})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(results) != 4 {
			t.Fatalf("workers=%d: got %d results", workers, len(results))
		}
		if results[0].Failed() || results[3].Failed() {
			t.Fatalf("workers=%d: healthy experiments failed", workers)
		}
		if !results[1].Failed() || !strings.Contains(results[1].Err, "boom") {
			t.Fatalf("workers=%d: b = %+v", workers, results[1])
		}
		if !results[2].Failed() || !strings.Contains(results[2].Err, "kaboom") {
			t.Fatalf("workers=%d: c = %+v", workers, results[2])
		}
		if got := rec.Registry().Counter("core.exp.failed").Value(); got != 2 {
			t.Fatalf("workers=%d: core.exp.failed = %d, want 2", workers, got)
		}
	}
}

// TestParentCancelStopsKeepGoing: keep-going degrades experiment
// failures, but the operator cancelling the run still stops it.
func TestParentCancelStopsKeepGoing(t *testing.T) {
	parent, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("interrupted by SIGINT")
	cancel(cause)
	results, err := RunExperiments(parent, NewContext(QuickConfig()), Experiments()[:3],
		RunOptions{Workers: 1, KeepGoing: true})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want cancellation cause", err)
	}
	if len(results) != 0 {
		t.Fatalf("got %d results from a pre-cancelled run", len(results))
	}
}

// TestCheckpointResumeZeroRebuilds is the acceptance criterion: a
// second run with the same checkpoint store rebuilds nothing — every
// experiment is a checkpoint hit and no artifact cell is ever built.
func TestCheckpointResumeZeroRebuilds(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	exps := []Experiment{mustFind(t, "fig2"), mustFind(t, "fig3"), mustFind(t, "fig5")}

	run := func() ([]*Result, *obs.Registry) {
		rec := obs.NewRecorder()
		store, err := ckpt.NewStore(dir, rec.Registry())
		if err != nil {
			t.Fatal(err)
		}
		c := NewContext(cfg)
		c.SetRecorder(rec)
		results, err := RunExperiments(context.Background(), c, exps, RunOptions{Workers: 2, Ckpt: store})
		if err != nil {
			t.Fatal(err)
		}
		return results, rec.Registry()
	}

	cold, coldReg := run()
	if got := coldReg.Counter("ckpt.store").Value(); got != int64(len(exps)) {
		t.Fatalf("cold run stored %d checkpoints, want %d", got, len(exps))
	}
	warm, warmReg := run()
	if got := warmReg.Counter("ckpt.hit").Value(); got != int64(len(exps)) {
		t.Fatalf("warm run hit %d checkpoints, want %d", got, len(exps))
	}
	for _, snap := range warmReg.Snapshot() {
		if strings.HasPrefix(snap.Name, "core.cell.") && strings.HasSuffix(snap.Name, ".miss") && snap.Value != 0 {
			t.Errorf("warm run rebuilt an artifact: %s = %v", snap.Name, snap.Value)
		}
	}
	if a, b := renderAll(t, cold), renderAll(t, warm); a != b {
		t.Error("warm-run tables differ from cold-run tables")
	}
	for i := range cold {
		if cold[i].ID != warm[i].ID || len(cold[i].Series) != len(warm[i].Series) {
			t.Fatalf("result %d differs across resume", i)
		}
	}
}

// TestCheckpointKeyChangesWithConfig: a config change must miss.
func TestCheckpointKeyChangesWithConfig(t *testing.T) {
	a := QuickConfig()
	b := QuickConfig()
	b.Seed = 99
	if CheckpointKey(a, "fig2") == CheckpointKey(b, "fig2") {
		t.Fatal("checkpoint key ignores the seed")
	}
	if CheckpointKey(a, "fig2") == CheckpointKey(a, "fig3") {
		t.Fatal("checkpoint key ignores the experiment ID")
	}
}

// TestFailedResultsNotCheckpointed: keep-going placeholders must never
// be persisted, or a transient failure would become permanent.
func TestFailedResultsNotCheckpointed(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder()
	store, err := ckpt.NewStore(dir, rec.Registry())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	flaky := Experiment{ID: "flaky", Title: "flaky", Run: func(*Context) (*Result, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return newResult("flaky", "flaky"), nil
	}}
	c := NewContext(QuickConfig())
	opts := RunOptions{Workers: 1, KeepGoing: true, Ckpt: store}
	results, err := RunExperiments(context.Background(), c, []Experiment{flaky}, opts)
	if err != nil || !results[0].Failed() {
		t.Fatalf("first run: results=%v err=%v", results, err)
	}
	results, err = RunExperiments(context.Background(), c, []Experiment{flaky}, opts)
	if err != nil || results[0].Failed() {
		t.Fatalf("second run: results=%v err=%v, want recovery (failure not checkpointed)", results, err)
	}
	if calls != 2 {
		t.Fatalf("flaky ran %d times, want 2", calls)
	}
}

// TestChaosInvariant is the robustness analogue of PR 2's
// "instrumentation never changes outputs": under an injected fault
// with keep-going, every experiment that did NOT have a fault injected
// renders byte-identically to a fault-free run.
func TestChaosInvariant(t *testing.T) {
	cfg := tinyConfig()
	exps := []Experiment{mustFind(t, "fig2"), mustFind(t, "fig3"), mustFind(t, "fig4"), mustFind(t, "fig5")}

	clean, err := RunExperiments(context.Background(), NewContext(cfg), exps, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	restore := fault.Enable(fault.NewPlan(fault.Rule{Site: "core.exp.fig4", Hit: 1, Kind: fault.Panic}))
	defer restore()
	chaos, err := RunExperiments(context.Background(), NewContext(cfg), exps, RunOptions{Workers: 4, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range chaos {
		if r.ID == "fig4" {
			if !r.Failed() {
				t.Fatal("fig4 did not fail despite injected panic")
			}
			continue
		}
		if r.Failed() {
			t.Fatalf("%s failed without an injected fault: %s", r.ID, r.Err)
		}
		if a, b := renderAll(t, clean[i:i+1]), renderAll(t, chaos[i:i+1]); a != b {
			t.Errorf("%s: output differs under chaos", r.ID)
		}
	}
}

func mustFind(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
