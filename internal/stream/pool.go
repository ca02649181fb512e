package stream

import (
	"sync"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// staging is the per-append merge scratch: the tiled copy of the in-flight
// batch, the T factor tables and arena its merge DAG demands, and the RHS
// staging rows. None of it outlives one merge, so it is borrowed from a
// package-level pool shared by every stream of the same scalar domain:
// a fleet of thousands of mostly-idle streams pays for its resident
// triangles and windows, not for per-stream append scratch.
type staging[T vec.Scalar] struct {
	pb, h  int             // tile rows of the staged block, and the height of all but its last
	tiles  []tile.Dense[T] // tiled batch views into arena
	tg     [][]T           // GEQRT T factors by stacked tile index
	t2     [][]T           // TSQRT/TTQRT T factors by stacked tile index
	arena  []T             // backing storage for the tiled batch copy
	tArena []T             // backing storage for the T factors
	rhs    []T             // batch RHS staging
}

// stagingPools holds one sync.Pool per scalar domain (package-level
// variables cannot be generic), indexed by vec.Prec.
var stagingPools [4]sync.Pool

func getStaging[T vec.Scalar]() *staging[T] {
	if v := stagingPools[vec.Prec[T]()].Get(); v != nil {
		return v.(*staging[T])
	}
	return &staging[T]{}
}

func putStaging[T vec.Scalar](st *staging[T]) {
	stagingPools[vec.Prec[T]()].Put(st)
}
