package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// checkTrees compares every node of every class tree with the
// brute-force maxima over the up members below it.
func checkTrees(t *testing.T, sm *sim, step int) {
	t.Helper()
	for ci := range sm.pidx.classes {
		cl := &sm.pidx.classes[ci]
		for k := 1; k < len(cl.tree); k++ {
			lo, hi := k, k+1 // k's leaf range, in tree positions
			for lo < int(cl.width) {
				lo, hi = 2*lo, 2*hi
			}
			want := emptyNode
			for leaf := lo; leaf < hi; leaf++ {
				if pos := leaf - int(cl.width); pos < len(cl.members) {
					ms := sm.machines[cl.members[pos]]
					if !ms.down {
						want = maxNode(want, pnode{sm.scoreOf(ms), ms.freeCPU, ms.freeMem})
					}
				}
			}
			if cl.tree[k] != want {
				t.Fatalf("step %d: class %d node %d = %+v, brute force %+v", step, ci, k, cl.tree[k], want)
			}
		}
	}
}

// randomRequest draws a task: on the 1/32 grid half the time, so exact
// score ties between machines are common, continuous otherwise.
func randomRequest(s *rng.Stream) trace.Task {
	var t trace.Task
	if s.Bool(0.5) {
		t.CPUReq = float64(1+s.IntN(12)) / 32
		t.MemReq = float64(1+s.IntN(12)) / 32
	} else {
		t.CPUReq = s.Range(0.005, 0.45)
		t.MemReq = s.Range(0.005, 0.45)
	}
	t.MinCPUClass = []float64{0, 0, 0, 0.25, 0.5, 0.75, 1, 2}[s.IntN(8)]
	return t
}

// TestPlaceIndexMatchesBruteForce drives the index through a seeded
// random sequence of reserve/release/machineDown/machineUp and, after
// every step, checks the trees against brute-force maxima and
// placeIndexed against placeReference on random tasks.
func TestPlaceIndexMatchesBruteForce(t *testing.T) {
	for _, pol := range []Policy{Balanced, BestFit} {
		for _, n := range []int{1, 7, 64, 150} {
			t.Run(fmt.Sprintf("%v/%d", pol, n), func(t *testing.T) {
				sm := newPlaceBench(n, false)
				sm.cfg.Placement = pol
				sm.pidx = newPlaceIndex(sm) // rescore for pol
				s := rng.New(uint64(31*n) + uint64(pol))
				type placed struct {
					mi int
					t  trace.Task
				}
				var live []placed
				successes, failures := 0, 0
				for step := 0; step < 1500; step++ {
					switch r := s.Float64(); {
					case r < 0.55:
						tk := randomRequest(s)
						if mi := sm.place(&tk); mi >= 0 {
							sm.reserve(mi, &tk)
							live = append(live, placed{mi, tk})
						}
					case r < 0.85 && len(live) > 0:
						k := s.IntN(len(live))
						sm.release(live[k].mi, &live[k].t)
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					case r < 0.93:
						// A machine goes down with its reservations released
						// first, as machineDown's evictions would.
						mi := s.IntN(n)
						kept := live[:0]
						for _, p := range live {
							if p.mi == mi {
								sm.release(p.mi, &p.t)
							} else {
								kept = append(kept, p)
							}
						}
						live = kept
						sm.machineDown(0, mi)
					default:
						mi := s.IntN(n)
						if sm.machines[mi].down {
							sm.machineUp(0, mi)
						}
					}
					checkTrees(t, sm, step)
					for q := 0; q < 5; q++ {
						tk := randomRequest(s)
						if q == 4 {
							// Degenerate requests the trees cannot prune for.
							tk.CPUReq = []float64{0, math.NaN(), math.Inf(-1)}[step%3]
						}
						want := sm.placeReference(&tk)
						if got := sm.placeIndexed(&tk); got != want {
							t.Fatalf("step %d: task %+v: indexed %d, reference %d", step, tk, got, want)
						}
						if want < 0 {
							failures++
						} else {
							successes++
						}
					}
				}
				if n > 1 && (successes < 500 || failures < 500) {
					t.Fatalf("sequence too one-sided to test much: %d successes, %d failures", successes, failures)
				}
			})
		}
	}
}

// TestPriorityTalliesMatchRunning adds and removes running tasks in a
// seeded random order and checks each machine's per-priority tallies
// against a recount of ms.running after every step: counts and the
// nonempty mask exactly, sums within preemptSlack, and an empty
// bucket's sums exactly 0. It also checks the prefilter's contract:
// whenever mayClearFor says no, tryPreempt's own feasibility test
// (free plus the lower-priority requests, summed in running-list
// order) fails too.
func TestPriorityTalliesMatchRunning(t *testing.T) {
	s := rng.New(5)
	const machines = 4
	states := make([]machineState, machines)
	for i := range states {
		states[i].freeCPU = s.Range(0, 0.3)
		states[i].freeMem = s.Range(0, 0.3)
	}
	tasks := make([]trace.Task, 4000)
	for i := range tasks {
		tasks[i] = trace.Task{
			Priority: trace.MinPriority + s.IntN(trace.MaxPriority-trace.MinPriority+1),
			CPUReq:   s.Range(0, 0.1),
			MemReq:   s.Range(0, 0.1),
		}
		if s.Bool(0.3) {
			tasks[i].CPUReq = float64(s.IntN(8)) / 64
		}
	}
	var running []*runningTask
	next := 0
	for step := 0; step < 20000; step++ {
		if len(running) > 0 && (s.Bool(0.45) || next == len(tasks)) {
			k := s.IntN(len(running))
			rt := running[k]
			states[rt.machine].removeRunning(rt)
			running[k] = running[len(running)-1]
			running = running[:len(running)-1]
		} else if next < len(tasks) {
			rt := &runningTask{task: &tasks[next], machine: s.IntN(machines)}
			next++
			states[rt.machine].addRunning(rt)
			running = append(running, rt)
		}
		for mi := range states {
			ms := &states[mi]
			var n [trace.MaxPriority + 1]int32
			var cpu, mem [trace.MaxPriority + 1]float64
			for _, rt := range ms.running {
				p := rt.task.Priority
				n[p]++
				cpu[p] += rt.task.CPUReq
				mem[p] += rt.task.MemReq
			}
			for p := range n {
				if ms.prioN[p] != n[p] {
					t.Fatalf("step %d machine %d prio %d: count %d, recount %d", step, mi, p, ms.prioN[p], n[p])
				}
				if got := ms.prioMask>>p&1 == 1; got != (n[p] > 0) {
					t.Fatalf("step %d machine %d prio %d: mask bit %v with %d tasks", step, mi, p, got, n[p])
				}
				if n[p] == 0 && (ms.prioCPU[p] != 0 || ms.prioMem[p] != 0) {
					t.Fatalf("step %d machine %d prio %d: empty bucket sums %v/%v", step, mi, p, ms.prioCPU[p], ms.prioMem[p])
				}
				if math.Abs(ms.prioCPU[p]-cpu[p]) > preemptSlack || math.Abs(ms.prioMem[p]-mem[p]) > preemptSlack {
					t.Fatalf("step %d machine %d prio %d: sums %v/%v, recount %v/%v",
						step, mi, p, ms.prioCPU[p], ms.prioMem[p], cpu[p], mem[p])
				}
			}
			for prio := trace.MinPriority; prio <= trace.MaxPriority; prio++ {
				lower := 0
				var cpuGain, memGain float64
				for _, rt := range ms.running {
					if rt.task.Priority < prio {
						lower++
						cpuGain += rt.task.CPUReq
						memGain += rt.task.MemReq
					}
				}
				if lower == 0 {
					continue // preemptFor only runs after place failed: nothing to clear
				}
				// A random request, and one exactly at the boundary.
				tk := tasks[s.IntN(len(tasks))]
				for _, req := range [][2]float64{{tk.CPUReq, tk.MemReq}, {ms.freeCPU + cpuGain, ms.freeMem + memGain}} {
					exact := ms.freeCPU+cpuGain >= req[0] && ms.freeMem+memGain >= req[1]
					if exact && !ms.mayClearFor(prio, req[0], req[1]) {
						t.Fatalf("step %d machine %d: prefilter rejects prio %d request %v that the exact test admits",
							step, mi, prio, req)
					}
				}
			}
		}
	}
}
