package core

import (
	"fmt"
	"sync"
)

// Kind enumerates the six sequential kernels of Table 1.
type Kind uint8

const (
	KGEQRT Kind = iota // factor square into triangle
	KUNMQR             // apply a GEQRT transformation to a trailing tile
	KTSQRT             // zero square with triangle on top
	KTSMQR             // apply a TSQRT transformation
	KTTQRT             // zero triangle with triangle on top
	KTTMQR             // apply a TTQRT transformation
	numKinds
)

// Weight returns the kernel cost in units of nb³/3 floating-point
// operations (Table 1 of the paper).
func (k Kind) Weight() int {
	switch k {
	case KGEQRT:
		return 4
	case KUNMQR:
		return 6
	case KTSQRT:
		return 6
	case KTSMQR:
		return 12
	case KTTQRT:
		return 2
	case KTTMQR:
		return 6
	}
	panic("core: unknown kernel kind")
}

func (k Kind) String() string {
	switch k {
	case KGEQRT:
		return "GEQRT"
	case KUNMQR:
		return "UNMQR"
	case KTSQRT:
		return "TSQRT"
	case KTSMQR:
		return "TSMQR"
	case KTTQRT:
		return "TTQRT"
	case KTTMQR:
		return "TTMQR"
	}
	return "?"
}

// Kernels selects the kernel family used to implement eliminations.
type Kernels uint8

const (
	// TT implements eliminations with triangle-on-top-of-triangle kernels
	// (Algorithm 3): more parallelism, all the new algorithms use it.
	TT Kernels = iota
	// TS implements eliminations with triangle-on-top-of-square kernels
	// (Algorithm 2): better locality, used by PLASMA's historical code path.
	TS
)

func (k Kernels) String() string {
	if k == TS {
		return "TS"
	}
	return "TT"
}

// Task is one kernel invocation. Row/column fields are 1-based tile indices:
// GEQRT(I,K), UNMQR(I,K,J), TSQRT/TTQRT(I,Piv,K), TSMQR/TTMQR(I,Piv,K,J).
type Task struct {
	Kind Kind
	I    int // row operated on (the zeroed row for factor/update pairs)
	Piv  int // pivot row (0 when not applicable)
	K    int // panel column
	J    int // update column (0 for panel kernels)
}

func (t Task) String() string {
	switch t.Kind {
	case KGEQRT:
		return fmt.Sprintf("GEQRT(%d,%d)", t.I, t.K)
	case KUNMQR:
		return fmt.Sprintf("UNMQR(%d,%d,%d)", t.I, t.K, t.J)
	case KTSQRT, KTTQRT:
		return fmt.Sprintf("%s(%d,%d,%d)", t.Kind, t.I, t.Piv, t.K)
	default:
		return fmt.Sprintf("%s(%d,%d,%d,%d)", t.Kind, t.I, t.Piv, t.K, t.J)
	}
}

// DAG is the dependency graph of kernel tasks obtained by expanding an
// elimination list (§2.3). Task IDs are topologically ordered: every
// predecessor of a task has a smaller ID.
type DAG struct {
	P, Q    int
	Kernels Kernels
	Tasks   []Task

	predOff []int32 // predOff[t]..predOff[t+1] indexes preds
	preds   []int32

	// ZeroTask maps sub-diagonal tile (i,k) (1-based) to the ID of the
	// TSQRT/TTQRT task that zeroes it, or -1.
	zeroTask []int32

	// fw[2t], fw[2t+1] are the tiles task t writes first (no task writes
	// more than two tiles), -1 padded at the end.
	fw []int32

	// Succs adjacency, memoized on first use: cached DAGs (streaming merge
	// shapes, refactored one-shots) are executed many times.
	succOnce    sync.Once
	succOffMemo []int32
	succsMemo   []int32
}

// NumTasks returns the number of kernel tasks.
func (d *DAG) NumTasks() int { return len(d.Tasks) }

// Preds returns the predecessor task IDs of task t (deduplicated, ascending).
func (d *DAG) Preds(t int) []int32 { return d.preds[d.predOff[t]:d.predOff[t+1]] }

// ZeroTask returns the ID of the task zeroing tile (i,k), or -1.
func (d *DAG) ZeroTask(i, k int) int32 {
	return d.zeroTask[(i-1)*d.Q+(k-1)]
}

// FirstWrites returns the tiles task t writes first, as tile indices
// (i−1)·Q + (j−1). A tile's first writer is the task that writes it with no
// earlier writer in either of its region chains (see dagBuilder); every
// other task touching the tile descends from it, so the first writer may
// fill the tile from a source just before its kernel runs — the engine's
// in-DAG copy-in. Each touched tile has exactly one first writer; a
// one-shot DAG touches every tile of its grid.
func (d *DAG) FirstWrites(t int) []int32 {
	fw := d.fw[2*t : 2*t+2]
	for len(fw) > 0 && fw[len(fw)-1] < 0 {
		fw = fw[:len(fw)-1]
	}
	return fw
}

// Succs returns the successor adjacency (flattened), materialized from the
// stored predecessor lists on first call and memoized. Used by the runtime
// scheduler and the list scheduler. Callers must not mutate the slices.
func (d *DAG) Succs() (off []int32, succs []int32) {
	d.succOnce.Do(func() { d.succOffMemo, d.succsMemo = d.buildSuccs() })
	return d.succOffMemo, d.succsMemo
}

func (d *DAG) buildSuccs() (off []int32, succs []int32) {
	n := len(d.Tasks)
	off = make([]int32, n+1)
	for t := 0; t < n; t++ {
		for _, p := range d.Preds(t) {
			off[p+1]++
		}
	}
	for t := 0; t < n; t++ {
		off[t+1] += off[t]
	}
	succs = make([]int32, len(d.preds))
	fill := make([]int32, n)
	for t := 0; t < n; t++ {
		for _, p := range d.Preds(t) {
			succs[off[p]+fill[p]] = int32(t)
			fill[p]++
		}
	}
	return off, succs
}

// TotalWeight returns the sum of task weights, which for any valid list is
// 6pq²−2q³ units for p ≥ q (§2.2) regardless of the elimination order.
func (d *DAG) TotalWeight() int {
	w := 0
	for _, t := range d.Tasks {
		w += t.Kind.Weight()
	}
	return w
}

// dagBuilder accumulates tasks and their dependency edges while tracking,
// per tile, the last writer of its two regions:
//
//   - the data region (the tile as updated by UNMQR/TSMQR/TTMQR and consumed
//     by the next column's factor kernels), and
//   - the R region of panel tiles (the factor chained through successive
//     TSQRT/TTQRT calls on the same pivot).
//
// Keeping the regions separate is what lets UNMQR(i,k,j) run concurrently
// with TTQRT(i,piv,k), exactly as in the paper's dependency analysis of
// Algorithm 3.
type dagBuilder struct {
	p, q int
	d    *DAG

	lastData []int32 // last writer of tile (i,j) data region, -1 if none
	lastR    []int32 // last writer of tile (i,k) R region, -1 if none
	tri      []bool  // tile (i,k) already triangularized in its column
	scratch  []int32
}

func newDAGBuilder(p, q int, kernels Kernels) *dagBuilder {
	// Preallocate for the TT expansion (the largest): every tile in every
	// panel column is triangularized once (GEQRT + q−k updates) and every
	// elimination adds a factor kernel plus q−k updates.
	nTasks := 0
	for k := 1; k <= min(p, q); k++ {
		nTasks += (p - k + 1) * (1 + q - k)
		nTasks += (p - k) * (1 + q - k)
	}
	// zeroTask and fw share one allocation.
	buf := make([]int32, p*q+2*nTasks)
	d := &DAG{P: p, Q: q, Kernels: kernels, zeroTask: buf[: p*q : p*q], fw: buf[p*q : p*q]}
	d.Tasks = make([]Task, 0, nTasks)
	d.preds = make([]int32, 0, 3*nTasks)
	d.predOff = make([]int32, 1, nTasks+1)
	for i := range d.zeroTask {
		d.zeroTask[i] = -1
	}
	b := &dagBuilder{p: p, q: q, d: d,
		lastData: make([]int32, p*q),
		lastR:    make([]int32, p*q),
		tri:      make([]bool, p*q),
	}
	for i := range b.lastData {
		b.lastData[i] = -1
		b.lastR[i] = -1
	}
	return b
}

// set records task t as the last writer of tile (i,j) in chain (lastData
// or lastR), and as the tile's first writer when neither chain has one yet.
func (b *dagBuilder) set(chain []int32, i, j int, t int32) {
	x := b.idx(i, j)
	if b.lastData[x] < 0 && b.lastR[x] < 0 {
		slot := 2 * t
		if b.d.fw[slot] >= 0 {
			slot++
		}
		b.d.fw[slot] = int32(x)
	}
	chain[x] = t
}

func (b *dagBuilder) idx(i, j int) int { return (i-1)*b.q + (j - 1) }

// add appends a task with the given predecessors (-1 entries are skipped,
// duplicates removed) and returns its ID.
func (b *dagBuilder) add(t Task, preds ...int32) int32 {
	id := int32(len(b.d.Tasks))
	b.d.Tasks = append(b.d.Tasks, t)
	b.scratch = b.scratch[:0]
	for _, p := range preds {
		if p < 0 {
			continue
		}
		dup := false
		for _, q := range b.scratch {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			b.scratch = append(b.scratch, p)
		}
	}
	b.d.preds = append(b.d.preds, b.scratch...)
	b.d.predOff = append(b.d.predOff, int32(len(b.d.preds)))
	b.d.fw = append(b.d.fw, -1, -1)
	return id
}

// triangularize emits GEQRT(r,k) and its UNMQR updates if tile (r,k) is not
// yet a triangle.
func (b *dagBuilder) triangularize(r, k int) {
	if b.tri[b.idx(r, k)] {
		return
	}
	b.tri[b.idx(r, k)] = true
	g := b.add(Task{Kind: KGEQRT, I: r, K: k}, b.lastData[b.idx(r, k)])
	b.set(b.lastR, r, k, g)
	for j := k + 1; j <= b.q; j++ {
		u := b.add(Task{Kind: KUNMQR, I: r, K: k, J: j}, g, b.lastData[b.idx(r, j)])
		b.set(b.lastData, r, j, u)
	}
}

// elim expands one elimination into its factor kernel plus trailing updates,
// triangularizing the participating rows first as the kernel family demands.
// Shared by BuildDAG and BuildStreamDAG.
func (b *dagBuilder) elim(e Elim, kernels Kernels) {
	useTT := kernels == TT || b.tri[b.idx(e.I, e.K)]
	b.triangularize(e.Piv, e.K)
	if useTT {
		if kernels == TT {
			b.triangularize(e.I, e.K)
		}
		f := b.add(Task{Kind: KTTQRT, I: e.I, Piv: e.Piv, K: e.K},
			b.lastR[b.idx(e.Piv, e.K)], b.lastR[b.idx(e.I, e.K)])
		b.set(b.lastR, e.Piv, e.K, f)
		b.set(b.lastR, e.I, e.K, f)
		b.d.zeroTask[b.idx(e.I, e.K)] = f
		for j := e.K + 1; j <= b.q; j++ {
			u := b.add(Task{Kind: KTTMQR, I: e.I, Piv: e.Piv, K: e.K, J: j},
				f, b.lastData[b.idx(e.I, j)], b.lastData[b.idx(e.Piv, j)])
			b.set(b.lastData, e.I, j, u)
			b.set(b.lastData, e.Piv, j, u)
		}
	} else {
		f := b.add(Task{Kind: KTSQRT, I: e.I, Piv: e.Piv, K: e.K},
			b.lastR[b.idx(e.Piv, e.K)], b.lastData[b.idx(e.I, e.K)])
		b.set(b.lastR, e.Piv, e.K, f)
		b.set(b.lastR, e.I, e.K, f)
		b.d.zeroTask[b.idx(e.I, e.K)] = f
		for j := e.K + 1; j <= b.q; j++ {
			u := b.add(Task{Kind: KTSMQR, I: e.I, Piv: e.Piv, K: e.K, J: j},
				f, b.lastData[b.idx(e.I, j)], b.lastData[b.idx(e.Piv, j)])
			b.set(b.lastData, e.I, j, u)
			b.set(b.lastData, e.Piv, j, u)
		}
	}
}

// BuildDAG expands a validated elimination list into the kernel task graph
// for the chosen kernel family. Following §2.1, a kernel is omitted when a
// tile is already in the required form: TT mode triangularizes both rows,
// while TS mode eliminates full tiles with TSQRT and falls back to TTQRT
// when the tile being zeroed is already a triangle (PLASMA's semi-parallel
// inter-domain merge, per Hadri et al. [10]).
func BuildDAG(list List, kernels Kernels) *DAG {
	b := newDAGBuilder(list.P, list.Q, kernels)
	for _, e := range list.Elims {
		b.elim(e, kernels)
	}
	// Triangularize any diagonal tile never used as a pivot (the final
	// GEQRT(k,k) of square grids, or every column when p == 1).
	for k := 1; k <= list.MinPQ(); k++ {
		b.triangularize(k, k)
	}
	return b.d
}
