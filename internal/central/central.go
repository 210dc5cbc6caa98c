// Package central implements the centralized scheduling algorithms used by
// the paper: Graham's List Scheduling and LPT on identical machines, the
// Earliest Completion Time greedy on unrelated machines, and the paper's own
// CLB2C (Centralized Load Balancing for Two Clusters, Algorithm 5), a
// 2-approximation for two clusters of identical machines under the
// hypothesis that no single job is longer than the optimal makespan
// (Theorem 6).
//
// CLB2C doubles as the kernel of the decentralized DLB2C: balancing one
// machine from each cluster is CLB2C on two singleton "clusters".
package central

import (
	"container/heap"
	"sort"

	"hetlb/internal/core"
)

// loadHeap is a min-heap of machines ordered by current load in an
// assignment, with machine index as a deterministic tie break.
type loadHeap struct {
	a        *core.Assignment
	machines []int
}

func (h *loadHeap) Len() int { return len(h.machines) }
func (h *loadHeap) Less(x, y int) bool {
	lx, ly := h.a.Load(h.machines[x]), h.a.Load(h.machines[y])
	if lx != ly {
		return lx < ly
	}
	return h.machines[x] < h.machines[y]
}
func (h *loadHeap) Swap(x, y int) { h.machines[x], h.machines[y] = h.machines[y], h.machines[x] }
func (h *loadHeap) Push(x any)    { h.machines = append(h.machines, x.(int)) }
func (h *loadHeap) Pop() any {
	old := h.machines
	n := len(old)
	v := old[n-1]
	h.machines = old[:n-1]
	return v
}

// ListScheduling assigns the given jobs, in the given order, each to the
// machine that completes it earliest (ECT). On identical machines this is
// Graham's List Scheduling (a 2-approximation); on unrelated machines it is
// the natural greedy (no guarantee, used as a baseline).
//
// jobs may be nil, meaning all jobs of the model in index order. The
// returned assignment is complete with respect to jobs.
func ListScheduling(m core.CostModel, jobs []int) *core.Assignment {
	a := core.NewAssignment(m)
	if jobs == nil {
		jobs = allJobs(m)
	}
	for _, j := range jobs {
		best := 0
		bestC := a.Load(0) + m.Cost(0, j)
		for i := 1; i < m.NumMachines(); i++ {
			if c := a.Load(i) + m.Cost(i, j); c < bestC {
				best, bestC = i, c
			}
		}
		a.Assign(j, best)
	}
	return a
}

// LPT runs Largest Processing Time first on an identical-machines instance:
// jobs sorted by decreasing size, then List Scheduling. It is a
// 4/3-approximation on identical machines.
func LPT(id *core.Identical) *core.Assignment {
	jobs := allJobs(id)
	sort.Slice(jobs, func(a, b int) bool {
		sa, sb := id.Size(jobs[a]), id.Size(jobs[b])
		if sa != sb {
			return sa > sb
		}
		return jobs[a] < jobs[b]
	})
	return ListScheduling(id, jobs)
}

// RatioLess orders jobs by increasing cost ratio
// cluster0/cluster1 using exact integer cross multiplication
// (core.CmpProducts), with the job index as a deterministic tie break. It is
// the ordering at the heart of CLB2C and of the Greedy Load Balancing of
// Algorithm 6.
func RatioLess(m core.Clustered, a, b int) bool {
	if c := core.CmpProducts(m.ClusterCost(0, a), m.ClusterCost(1, b), m.ClusterCost(0, b), m.ClusterCost(1, a)); c != 0 {
		return c < 0
	}
	return a < b
}

// SortByRatio sorts jobs in place by increasing cluster0/cluster1 cost
// ratio.
func SortByRatio(m core.Clustered, jobs []int) {
	sort.Slice(jobs, func(x, y int) bool { return RatioLess(m, jobs[x], jobs[y]) })
}

// CLB2C implements Algorithm 5 of the paper on an arbitrary sub-problem: it
// assigns each job of jobs onto one of the machines in ms0 (which must
// belong to cluster 0) or ms1 (cluster 1), mutating a. The jobs must be
// unassigned in a.
//
// The jobs are considered sorted by increasing cost ratio p0/p1. At each
// step the head job (relatively cheapest on cluster 0) is tentatively placed
// on the least-loaded machine of ms0 and the tail job on the least-loaded
// machine of ms1; whichever placement finishes earlier is committed. Ties
// favor cluster 0, matching the "≤" of the paper's pseudocode.
func CLB2C(a *core.Assignment, m core.Clustered, ms0, ms1, jobs []int) {
	sorted := append([]int(nil), jobs...)
	SortByRatio(m, sorted)

	h0 := &loadHeap{a: a, machines: append([]int(nil), ms0...)}
	h1 := &loadHeap{a: a, machines: append([]int(nil), ms1...)}
	heap.Init(h0)
	heap.Init(h1)

	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		jHead, jTail := sorted[lo], sorted[hi]
		i0 := h0.machines[0]
		i1 := h1.machines[0]
		c0 := a.Load(i0) + m.ClusterCost(0, jHead)
		c1 := a.Load(i1) + m.ClusterCost(1, jTail)
		if c0 <= c1 {
			a.Assign(jHead, i0)
			lo++
			heap.Fix(h0, 0)
		} else {
			a.Assign(jTail, i1)
			hi--
			heap.Fix(h1, 0)
		}
	}
}

// RunCLB2C builds a complete schedule of all jobs of a two-cluster model
// with CLB2C. This is the centralized reference ("cent" in Figure 5 of the
// paper).
func RunCLB2C(m core.Clustered) *core.Assignment {
	a := core.NewAssignment(m)
	var ms0, ms1 []int
	for i := 0; i < m.NumMachines(); i++ {
		if m.ClusterOf(i) == 0 {
			ms0 = append(ms0, i)
		} else {
			ms1 = append(ms1, i)
		}
	}
	CLB2C(a, m, ms0, ms1, allJobs(m))
	return a
}

func allJobs(m core.CostModel) []int {
	jobs := make([]int, m.NumJobs())
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}
