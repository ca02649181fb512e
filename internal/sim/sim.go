// Package sim is the discrete-event simulator used to analyze tiled QR
// algorithms, replacing the SimGrid-based simulator of the paper. It
// computes ASAP (unbounded-processor) schedules — whose per-tile zeroing
// times reproduce Tables 3 and 4 and whose makespans are the critical
// paths of Table 5 — and bounded-processor list schedules used for the
// performance predictions of Section 4.
package sim

import (
	"container/heap"

	"tiledqr/internal/core"
	"tiledqr/internal/tile"
)

// Schedule is the result of an ASAP simulation: per-task start/finish times
// in units of nb³/3 flops, and the makespan (critical path length).
type Schedule struct {
	DAG    *core.DAG
	Start  []int
	Finish []int
	CP     int
}

// ASAP computes the earliest-start schedule of the task DAG with unbounded
// processors: each kernel starts as soon as all its dependencies completed
// (§2.3). Task IDs are topologically ordered by construction, so a single
// forward sweep suffices.
func ASAP(d *core.DAG) *Schedule {
	n := d.NumTasks()
	s := &Schedule{DAG: d, Start: make([]int, n), Finish: make([]int, n)}
	for t := 0; t < n; t++ {
		start := 0
		for _, p := range d.Preds(t) {
			if f := s.Finish[p]; f > start {
				start = f
			}
		}
		s.Start[t] = start
		s.Finish[t] = start + d.Tasks[t].Kind.Weight()
		if s.Finish[t] > s.CP {
			s.CP = s.Finish[t]
		}
	}
	return s
}

// ZeroTimes returns the time step at which each sub-diagonal tile (i,k) is
// zeroed out (the completion of its TSQRT/TTQRT), indexed [i-1][k-1]; zero
// entries correspond to tiles that are never eliminated. This is the
// quantity tabulated in Tables 3 and 4(a).
func (s *Schedule) ZeroTimes() [][]int {
	qmin := min(s.DAG.P, s.DAG.Q)
	out := make([][]int, s.DAG.P)
	for i := 1; i <= s.DAG.P; i++ {
		out[i-1] = make([]int, qmin)
		for k := 1; k <= min(qmin, i-1); k++ {
			if t := s.DAG.ZeroTask(i, k); t >= 0 {
				out[i-1][k-1] = s.Finish[t]
			}
		}
	}
	return out
}

// CriticalPath is a convenience wrapper: the critical path length of the
// given algorithm on a p×q grid with the chosen kernel family.
func CriticalPath(alg core.Algorithm, p, q int, opt core.Options, kernels core.Kernels) (int, error) {
	list, err := core.Generate(alg, p, q, opt)
	if err != nil {
		return 0, err
	}
	return ASAP(core.BuildDAG(list, kernels)).CP, nil
}

// CriticalPathList returns the critical path of an explicit elimination
// list under the chosen kernel family.
func CriticalPathList(list core.List, kernels core.Kernels) int {
	return ASAP(core.BuildDAG(list, kernels)).CP
}

// BestPlasmaBS sweeps the PlasmaTree domain size 1..p and returns the size
// with the shortest critical path (ties go to the smaller BS, matching the
// paper's exhaustive search) along with that critical path.
func BestPlasmaBS(p, q int, kernels core.Kernels) (bs, cp int) {
	bs, cp = 1, -1
	for b := 1; b <= p; b++ {
		c := CriticalPathList(core.PlasmaTreeList(p, q, b), kernels)
		if cp < 0 || c < cp {
			bs, cp = b, c
		}
	}
	return bs, cp
}

// Priority selects the ready-queue ordering of the bounded-processor list
// scheduler.
type Priority int

const (
	// PriorityFIFO runs ready tasks in task-creation (list) order, the
	// behaviour of a simple dynamic runtime queue.
	PriorityFIFO Priority = iota
	// PriorityBLevel runs the ready task with the longest remaining
	// critical path first (classic HLF/bottom-level list scheduling).
	PriorityBLevel
)

// ListSchedule simulates execution of the DAG on `workers` processors with
// the given task weights (weights[t] = duration of task t; use UnitWeights
// for Table 1 units or measured kernel times for performance prediction).
// It returns the makespan in the same unit as weights.
func ListSchedule(d *core.DAG, workers int, weights []float64, prio Priority) float64 {
	n := d.NumTasks()
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	succOff, succs := d.Succs()
	indeg := make([]int32, n)
	for t := 0; t < n; t++ {
		indeg[t] = int32(len(d.Preds(t)))
	}
	rank := make([]float64, n)
	if prio == PriorityBLevel {
		for t := n - 1; t >= 0; t-- {
			var best float64
			for _, s := range succs[succOff[t]:succOff[t+1]] {
				if rank[s] > best {
					best = rank[s]
				}
			}
			rank[t] = best + weights[t]
		}
	} else {
		for t := range rank {
			rank[t] = float64(n - t) // FIFO: earlier tasks first
		}
	}

	ready := &taskHeap{rank: rank}
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			heap.Push(ready, int32(t))
		}
	}
	running := &eventQueue{}
	var now, makespan float64
	free := workers
	done := 0
	for done < n {
		for free > 0 && ready.Len() > 0 {
			t := heap.Pop(ready).(int32)
			fin := now + weights[t]
			heap.Push(running, taskEvent{fin: fin, id: t})
			free--
		}
		ev := heap.Pop(running).(taskEvent)
		now = ev.fin
		if now > makespan {
			makespan = now
		}
		free++
		done++
		// Drain every completion at the same instant before dispatching.
		for _, s := range succs[succOff[ev.id]:succOff[ev.id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(ready, s)
			}
		}
		for running.Len() > 0 && (*running)[0].fin == now {
			ev = heap.Pop(running).(taskEvent)
			free++
			done++
			for _, s := range succs[succOff[ev.id]:succOff[ev.id+1]] {
				indeg[s]--
				if indeg[s] == 0 {
					heap.Push(ready, s)
				}
			}
		}
	}
	return makespan
}

// UnitWeights returns each task's Table 1 weight as a float64 slice.
func UnitWeights(d *core.DAG) []float64 {
	w := make([]float64, d.NumTasks())
	for t := range w {
		w[t] = float64(d.Tasks[t].Kind.Weight())
	}
	return w
}

// KindWeights builds a task weight slice from a per-kind duration table
// (e.g. measured kernel seconds) for a DAG on a square grid, every tile
// row nb tall.
func KindWeights(d *core.DAG, dur map[core.Kind]float64) []float64 {
	w := make([]float64, d.NumTasks())
	for t := range w {
		w[t] = dur[d.Tasks[t].Kind]
	}
	return w
}

// GridWeights is KindWeights for a DAG run on grid g, with dur priced at
// nb-row tiles. GEQRT, UNMQR, TSQRT and TSMQR factor or update their whole
// tile (TSQRT and TSMQR the B tile, in tile row I), so on the tile rows
// below g.Top their weight scales by MB/NB. TTQRT and TTMQR act on the top
// nb rows of a tile whatever its height, and keep theirs. As on a square
// grid, a ragged last row is priced at the full height.
func GridWeights(d *core.DAG, g tile.Grid, dur map[core.Kind]float64) []float64 {
	w := KindWeights(d, dur)
	if g.MB == g.NB {
		return w
	}
	scale := float64(g.MB) / float64(g.NB)
	for t, task := range d.Tasks {
		switch task.Kind {
		case core.KGEQRT, core.KUNMQR, core.KTSQRT, core.KTSMQR:
			if task.I > g.Top {
				w[t] *= scale
			}
		}
	}
	return w
}

type taskHeap struct {
	items []int32
	rank  []float64
}

func (h *taskHeap) Len() int { return len(h.items) }
func (h *taskHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.rank[a] != h.rank[b] {
		return h.rank[a] > h.rank[b]
	}
	return a < b
}
func (h *taskHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *taskHeap) Push(x any)    { h.items = append(h.items, x.(int32)) }
func (h *taskHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

type taskEvent struct {
	fin float64
	id  int32
}

type eventQueue []taskEvent

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].fin < q[j].fin }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(taskEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
