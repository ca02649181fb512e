package tune

import (
	"fmt"
	"sort"

	"tiledqr/internal/core"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/sim"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Request describes one resolution: the matrix shape, the execution width
// the factorization will actually run at, and any pinned sizes (zero means
// "choose for me").
type Request struct {
	M, N    int
	Workers int // ≤ 0 means sched.DefaultWorkers
	PinNB   int // > 0 pins the tile size
	PinIB   int // > 0 pins the inner block
}

// Candidate is one scored configuration. Rank returns them best-first;
// Resolve returns the winner.
type Candidate struct {
	Algorithm    core.Algorithm
	Kernels      core.Kernels
	NB, IB       int
	P, Q         int     // tile grid run at NB (tile.FactorGrid)
	PredictedSec float64 // model-predicted factorization wall time
	Simulated    bool    // true: full DAG list-scheduling; false: roofline bound
}

const (
	// simTaskLimit caps the DAG size the resolver fully simulates; larger
	// grids fall back to the roofline bound (where the area term dominates
	// anyway, so the approximation costs little accuracy).
	simTaskLimit = 60_000
	// dispatchSec is the scheduler's per-task dispatch overhead added to
	// every simulated task — it is what steers tiny matrices away from tiny
	// tiles (thousands of microsecond tasks) toward fewer, larger tiles.
	dispatchSec = 120e-9
)

// decKey identifies one cached decision. The vec kernel family is part of
// the key: flipping the backend (SetFamily, benchmarks) must not serve
// decisions scored with the other family's throughput.
type decKey struct {
	prec, family  string
	stream        bool
	m, n, workers int
	pinNB, pinIB  int
}

// Resolve picks the predicted-fastest (algorithm, kernel family, nb, ib)
// for a factorization of an m×n matrix in T's domain. Decisions are cached
// per (shape, width, pins, precision), so repeated factorizations of one
// shape — the FactorInto serving path — resolve to the identical tuple with
// a map lookup.
func Resolve[T vec.Scalar](req Request) (Candidate, error) {
	if req.M < 1 || req.N < 1 {
		return Candidate{}, fmt.Errorf("tiledqr: tune: invalid shape %d×%d", req.M, req.N)
	}
	if req.Workers < 1 {
		req.Workers = sched.DefaultWorkers()
	}
	key := decKey{prec: precKey[T](), family: vec.ActiveFamily(),
		m: req.M, n: req.N, workers: req.Workers,
		pinNB: req.PinNB, pinIB: req.PinIB}
	if c, ok := decided.Load(key); ok {
		return c.(Candidate), nil
	}
	ranked := Rank[T](req)
	if len(ranked) == 0 {
		return Candidate{}, fmt.Errorf("tiledqr: tune: no feasible configuration for %d×%d", req.M, req.N)
	}
	decided.Store(key, ranked[0])
	return ranked[0], nil
}

// Rank scores every candidate configuration for the request and returns
// them sorted fastest-predicted first. Candidate order is deterministic, so
// ties resolve identically on every call.
func Rank[T vec.Scalar](req Request) []Candidate {
	if req.Workers < 1 {
		req.Workers = sched.DefaultWorkers()
	}
	family := vec.ActiveFamily()
	pts := ForFamily[T](family)
	var out []Candidate
	for _, pt := range candidatePoints(req.M, req.N, req.PinNB, req.PinIB) {
		g := tile.FactorGrid(req.M, req.N, pt.nb)
		p, q := g.P, g.Q
		secs := secsAt[T](pts, pt.nb)
		est := estTasks(p, q)
		if est <= simTaskLimit {
			for _, alg := range core.Algorithms {
				list, err := core.Generate(alg, p, q, core.Options{})
				if err != nil {
					continue
				}
				for _, fam := range []core.Kernels{core.TT, core.TS} {
					d := core.BuildDAG(list, fam)
					sec := predict(d, sim.GridWeights(d, g, secs), req.Workers)
					out = append(out, Candidate{Algorithm: alg, Kernels: fam,
						NB: pt.nb, IB: pt.ib, P: p, Q: q, PredictedSec: sec, Simulated: true})
				}
			}
			continue
		}
		// Roofline path for huge grids: γ_pred's max(area, critical path)
		// with the paper's closed-form critical-path bounds, on the square
		// grid: the area is the flop count whatever the row heights. Asap
		// has no closed form (its list generation is itself a simulation),
		// so it is not considered here.
		sp := tile.NewGrid(req.M, req.N, pt.nb).P
		totalUnits := float64(model.TotalUnits(sp, q))
		for _, alg := range core.Algorithms {
			if alg == core.Asap {
				continue
			}
			for _, fam := range []core.Kernels{core.TT, core.TS} {
				unitSec := secs[core.KTTMQR] / 6
				if fam == core.TS {
					unitSec = secs[core.KTSMQR] / 12
				}
				cp := float64(cpUnitsApprox(alg, fam, sp, q))
				sec := max(totalUnits*unitSec/float64(req.Workers), cp*unitSec) +
					dispatchSec*float64(est)/float64(req.Workers)
				out = append(out, Candidate{Algorithm: alg, Kernels: fam,
					NB: pt.nb, IB: pt.ib, P: p, Q: q, PredictedSec: sec})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PredictedSec < out[j].PredictedSec })
	return out
}

// predict list-schedules d at the given width with w, the calibrated
// seconds of each task, plus the scheduler's dispatch overhead.
func predict(d *core.DAG, w []float64, workers int) float64 {
	for i := range w {
		w[i] += dispatchSec
	}
	return sim.ListSchedule(d, workers, w, sim.PriorityBLevel)
}

// ResolveStream picks (nb, ib) for a streaming TSQR over n columns under
// AlgorithmAuto: the tile size at which the merge of a one-tile-row batch —
// FlatTree with TS kernels, as every stream merges row batches, so each
// column is one TSQRT straight into the resident triangle plus its TSMQR
// updates — costs the least per row. It prices nb-row batch tiles at the
// calibrated nb×nb kernel rates, although a stream stages its batches in
// tiles 2·nb rows tall, where the TS kernels run faster per flop. The merge
// DAG is list-scheduled at the execution width, as Rank scores
// factorizations; above simTaskLimit tasks its work and critical path
// bound it instead. PredictedSec is that per-row time. Decisions are cached
// like Resolve's.
func ResolveStream[T vec.Scalar](n, workers, pinNB, pinIB int) (Candidate, error) {
	if n < 1 {
		return Candidate{}, fmt.Errorf("tiledqr: tune: invalid stream width n=%d", n)
	}
	if workers < 1 {
		workers = sched.DefaultWorkers()
	}
	family := vec.ActiveFamily()
	key := decKey{prec: precKey[T](), family: family, stream: true,
		n: n, workers: workers, pinNB: pinNB, pinIB: pinIB}
	if c, ok := decided.Load(key); ok {
		return c.(Candidate), nil
	}
	pts := ForFamily[T](family)
	var best Candidate
	for _, pt := range candidatePoints(n, n, pinNB, pinIB) {
		q := (n + pt.nb - 1) / pt.nb
		secs := secsAt[T](pts, pt.nb)
		qrt, mqr := secs[core.KTSQRT]+dispatchSec, secs[core.KTSMQR]+dispatchSec
		tasks := q * (q + 1) / 2
		var batchSec float64
		if tasks <= simTaskLimit {
			d := core.BuildStreamDAG(q, 1, core.TS, false)
			batchSec = predict(d, sim.KindWeights(d, secs), workers)
		} else {
			work := float64(q)*qrt + float64(tasks-q)*mqr
			batchSec = max(work/float64(workers), float64(q)*qrt+float64(q-1)*mqr)
		}
		if perRow := batchSec / float64(pt.nb); best.NB == 0 || perRow < best.PredictedSec {
			best = Candidate{Algorithm: core.FlatTree, Kernels: core.TS, NB: pt.nb, IB: pt.ib,
				P: 1, Q: q, PredictedSec: perRow, Simulated: tasks <= simTaskLimit}
		}
	}
	decided.Store(key, best)
	return best, nil
}

// candidatePoint is one (nb, ib) the resolver scores.
type candidatePoint struct{ nb, ib int }

// candidatePoints returns the (nb, ib) grid honoring pins: a pinned nb is
// the single candidate; otherwise the calibration tile sizes, clamped so nb
// never exceeds the matrix (a single right-sized tile replaces every
// larger-than-the-matrix candidate) and never dips below a pinned ib.
func candidatePoints(m, n, pinNB, pinIB int) []candidatePoint {
	if pinNB > 0 {
		ib := pinIB
		if ib <= 0 {
			ib = IBFor(pinNB)
		}
		return []candidatePoint{{nb: pinNB, ib: min(ib, pinNB)}}
	}
	maxDim := max(m, n)
	seen := map[int]bool{}
	var out []candidatePoint
	for _, nb := range calNBs {
		if nb > maxDim {
			nb = maxDim
		}
		if pinIB > 0 && nb < pinIB {
			nb = pinIB
		}
		if seen[nb] {
			continue
		}
		seen[nb] = true
		ib := pinIB
		if ib <= 0 {
			ib = IBFor(nb)
		}
		out = append(out, candidatePoint{nb: nb, ib: min(ib, nb)})
	}
	return out
}

// estTasks estimates the DAG task count of a p×q factorization from above,
// modeling the TT family (the larger of the two: every participating row is
// re-triangularized per column, so column k holds ≈ (q−k+1)(2(p−k)+1)
// tasks; TS has roughly half). Measured against real DAGs it sits 2–8%
// above the TT count and 10–30% above TS — a budget guard, not a cost
// model.
func estTasks(p, q int) int {
	est := 0
	for k := 1; k <= min(p, q); k++ {
		est += 2 * (p - k + 1) * (q - k + 1)
	}
	return est
}

// secsAt converts the calibrated GFLOP/s into seconds per kernel call at an
// arbitrary tile size, interpolating throughput piecewise-linearly in nb
// between calibration points (clamped at the ends). Sensitivity to ib
// within a point is ignored — the calibration grid follows IBFor, and
// pinned inner blocks reuse the nearest measured throughput.
func secsAt[T vec.Scalar](pts []Point, nb int) map[core.Kind]float64 {
	out := make(map[core.Kind]float64, 6)
	for k := core.Kind(0); k < 6; k++ {
		g := interpGflops(pts, nb, k.String())
		if g <= 0 {
			g = 1 // defensive: a missing series predicts 1 GFLOP/s rather than dividing by zero
		}
		out[k] = Gflops[T](k.Weight(), nb, g) // the inverse direction: GFLOP/s in, seconds out
	}
	return out
}

// interpGflops linearly interpolates one kernel's GFLOP/s at tile size nb.
func interpGflops(pts []Point, nb int, kind string) float64 {
	if len(pts) == 0 {
		return 0
	}
	if nb <= pts[0].NB {
		return pts[0].Gflops[kind]
	}
	for i := 1; i < len(pts); i++ {
		if nb <= pts[i].NB {
			lo, hi := pts[i-1], pts[i]
			t := float64(nb-lo.NB) / float64(hi.NB-lo.NB)
			return lo.Gflops[kind] + t*(hi.Gflops[kind]-lo.Gflops[kind])
		}
	}
	return pts[len(pts)-1].Gflops[kind]
}

// cpUnitsApprox returns a closed-form critical-path estimate in Table 1
// units for the roofline path, using the transposed grid when p < q (wide
// matrices factor min(p,q) panels). TT bounds are the paper's Theorem 1 /
// Propositions 1–2; the TS family, which serializes each elimination's
// square update, is approximated as 3/2× the TT path (the FlatTree ratio of
// Proposition 2 to Theorem 1).
func cpUnitsApprox(alg core.Algorithm, fam core.Kernels, p, q int) int {
	pp, qm := max(p, q), min(p, q)
	var cp int
	switch alg {
	case core.FlatTree:
		cp = model.FlatTreeCP(pp, qm)
	case core.BinaryTree:
		cp = model.BinaryTreeCPPow2(pp, qm)
	case core.Fibonacci:
		cp = model.FibonacciCPUpper(pp, qm)
	default: // Greedy and anything else without a dedicated form
		cp = model.GreedyCPUpper(pp, qm)
	}
	if fam == core.TS {
		cp = cp * 3 / 2
	}
	return cp
}
