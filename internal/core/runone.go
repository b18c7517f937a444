package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// RunOne executes a single experiment with the protections the batch
// runner applies — panic isolation, a named fault site, an optional
// per-run deadline — without a worker pool. It is the serving daemon's
// build step: each cold artifact becomes exactly one RunOne behind the
// daemon's request coalescer and the replica coordinator, which owns
// all checkpoint I/O around it.
//
// The error, like RunExperiments', is wrapped "core: <id>: ...";
// context cancellation surfaces unwrapped causes via errors.Is. When
// ctx carries a request trace, the experiment run becomes an
// exp:<id> child span of it.
func RunOne(ctx context.Context, c *Context, e Experiment, timeout time.Duration) (*Result, error) {
	sp, runCtx := c.Recorder().StartSpan(ctx, "exp:"+e.ID, obs.CatExperiment)
	r, err := runExperimentProtected(runCtx, c, e, timeout)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", e.ID, err)
	}
	return r, nil
}
