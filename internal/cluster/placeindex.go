package cluster

import (
	"math"
	"slices"

	"repro/internal/trace"
)

// placeIndex accelerates placement over a fixed machine park so that
// scheduling is sublinear in the machine count. It keeps one
// max-summary tree per CPU capacity class:
//
//   - The tree is a flat, 1-based segment tree over the class's
//     members (ascending machine index). Each node holds the maximum
//     placement score, free CPU and free memory of the up machines
//     below it; down machines and the padding leaves are -Inf in all
//     three, so they can never look feasible.
//   - A leaf's score is exactly what scoreOf computes — the same
//     float64 expression the reference scan evaluates — so the argmax
//     is bit-identical.
//   - idxUpdate rewrites one leaf and its ancestors, stopping as soon
//     as an ancestor's summary is unchanged.
//   - pclass.best is a branch-and-bound descent: a subtree is skipped
//     when its max free CPU or memory is below the request (nothing in
//     it fits) or its max score cannot beat the best machine found so
//     far. Equal scores break to the lowest machine index, which is
//     the reference scan's first-maximum choice.
//
// Random placement bypasses the trees entirely (it must consume the
// RNG exactly like the reference path) but still uses the per-class
// eligibility lists to skip machines below a task's MinCPUClass
// constraint during preemption.
type placeIndex struct {
	caps    []float64 // distinct machine CPU capacities, ascending
	classes []pclass  // one per capacity, same order as caps
	classOf []int32   // machine index -> class index
	leafOf  []int32   // machine index -> leaf node in its class tree
}

type pclass struct {
	members  []int32 // machine indices in this class, ascending
	eligible []int32 // machines with capacity >= this class's, ascending
	// tree[1] is the root; the leaves are tree[width:width+len(members)],
	// where width is len(members) rounded up to a power of two.
	tree  []pnode
	width int32
}

// pnode is one tree node's summary over the up machines below it.
type pnode struct {
	score, cpu, mem float64
}

var emptyNode = pnode{math.Inf(-1), math.Inf(-1), math.Inf(-1)}

// newPlaceIndex builds the index for the sim's machine park from the
// machines' current state.
func newPlaceIndex(sm *sim) *placeIndex {
	n := len(sm.machines)
	p := &placeIndex{classOf: make([]int32, n), leafOf: make([]int32, n)}
	for _, ms := range sm.machines {
		if !slices.Contains(p.caps, ms.m.CPU) {
			p.caps = append(p.caps, ms.m.CPU)
		}
	}
	slices.Sort(p.caps)
	p.classes = make([]pclass, len(p.caps))
	for i, ms := range sm.machines {
		ci, _ := slices.BinarySearch(p.caps, ms.m.CPU)
		p.classOf[i] = int32(ci)
		p.classes[ci].members = append(p.classes[ci].members, int32(i))
	}
	// eligible[ci] is the ascending union of classes ci..top, built
	// top-down so each list is a merge of the class below's list.
	for ci := len(p.classes) - 1; ci >= 0; ci-- {
		if ci == len(p.classes)-1 {
			p.classes[ci].eligible = p.classes[ci].members
			continue
		}
		p.classes[ci].eligible = mergeAscending(p.classes[ci].members, p.classes[ci+1].eligible)
	}
	for ci := range p.classes {
		cl := &p.classes[ci]
		cl.width = 1
		for int(cl.width) < len(cl.members) {
			cl.width *= 2
		}
		cl.tree = make([]pnode, 2*cl.width)
		for k := range cl.tree {
			cl.tree[k] = emptyNode
		}
		for k, mi := range cl.members {
			leaf := cl.width + int32(k)
			p.leafOf[mi] = leaf
			cl.tree[leaf] = sm.leafNode(sm.machines[mi])
		}
		for k := cl.width - 1; k >= 1; k-- {
			cl.tree[k] = maxNode(cl.tree[2*k], cl.tree[2*k+1])
		}
	}
	return p
}

func mergeAscending(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// leafNode is machine ms's leaf summary: its score and free capacity
// while up, -Inf everywhere while down.
func (sm *sim) leafNode(ms *machineState) pnode {
	if ms.down {
		return emptyNode
	}
	return pnode{sm.scoreOf(ms), ms.freeCPU, ms.freeMem}
}

func maxNode(a, b pnode) pnode {
	return pnode{max(a.score, b.score), max(a.cpu, b.cpu), max(a.mem, b.mem)}
}

// eligible returns the machine indices (ascending) whose CPU capacity
// satisfies minClass, or nil when no class does.
func (p *placeIndex) eligible(minClass float64) []int32 {
	ci, _ := slices.BinarySearch(p.caps, minClass)
	if ci >= len(p.classes) {
		return nil
	}
	return p.classes[ci].eligible
}

// idxUpdate refreshes machine mi's leaf after any change to its free
// capacity or up/down state, then its ancestors until one is unchanged
// (everything above an unchanged node is unchanged too).
func (sm *sim) idxUpdate(mi int) {
	p := sm.pidx
	if p == nil {
		return
	}
	tree := p.classes[p.classOf[mi]].tree
	k := p.leafOf[mi]
	tree[k] = sm.leafNode(sm.machines[mi])
	for k > 1 {
		k /= 2
		nd := maxNode(tree[2*k], tree[2*k+1])
		if nd == tree[k] {
			break
		}
		tree[k] = nd
	}
}

// placeIndexed finds the best feasible machine across the classes the
// task's MinCPUClass admits: maximal score, ties to the lowest global
// machine index — exactly the reference scan's choice. The best
// machine so far bounds the search in every later class.
func (sm *sim) placeIndexed(t *trace.Task) int {
	if !(t.CPUReq > math.Inf(-1) && t.MemReq > math.Inf(-1)) {
		// A NaN or -Inf request passes the capacity test even on -Inf
		// nodes, so the trees cannot prune for it; the reference scan
		// defines what happens to it.
		return sm.placeReference(t)
	}
	p := sm.pidx
	best := int32(-1)
	var bestScore float64
	examined := 0
	ci, _ := slices.BinarySearch(p.caps, t.MinCPUClass)
	for ; ci < len(p.classes); ci++ {
		examined += p.classes[ci].best(t, &best, &bestScore)
	}
	sm.met.scans.Add(int64(examined))
	return int(best)
}

// best descends the class tree for a machine that fits t and beats
// (*bestMI, *bestScore) — a higher score, or an equal score on a lower
// machine index — updating the pair in place. It returns the number
// of leaves whose feasibility it evaluated.
//
// The descent is depth-first, higher-scoring child first, so good
// candidates are found early and tighten the bound. A subtree is
// skipped when its max free CPU or memory is below the request, or
// when its max score is below the bound (or equal to it with a first
// member above the bound's index, so every tie it holds loses). Both
// tests only skip subtrees that cannot hold the answer, so the result
// does not depend on the visiting order. Down machines and padding
// are -Inf, so the capacity test always skips them.
func (cl *pclass) best(t *trace.Task, bestMI *int32, bestScore *float64) int {
	tree, width := cl.tree, cl.width
	mi, score := *bestMI, *bestScore
	// At most one pending sibling per level plus the node being
	// expanded; 64 slots cover any int32-indexed tree.
	var stack [64]int32
	stack[0] = 1
	sp := 1
	examined := 0
	for sp > 0 {
		sp--
		k := stack[sp]
		if k >= width {
			examined++
		}
		nd := &tree[k]
		if nd.cpu < t.CPUReq || nd.mem < t.MemReq {
			continue
		}
		if mi >= 0 && nd.score <= score && (nd.score < score || cl.firstMember(k) > mi) {
			continue
		}
		if k >= width {
			mi, score = cl.members[k-width], nd.score
			continue
		}
		l, r := 2*k, 2*k+1
		if tree[r].score > tree[l].score {
			l, r = r, l
		}
		stack[sp], stack[sp+1] = r, l
		sp += 2
	}
	*bestMI, *bestScore = mi, score
	return examined
}

// firstMember is the machine index of node k's leftmost leaf. Only
// called on nodes that passed the capacity test, which always hold at
// least one real member, so the leftmost leaf is never padding.
func (cl *pclass) firstMember(k int32) int32 {
	for k < cl.width {
		k *= 2
	}
	return cl.members[k-cl.width]
}
