package stream

import (
	"unsafe"

	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// staging is the per-append merge scratch: the tiled copy of the in-flight
// batch, right-hand sides in its trailing columns, and the T factor tables
// and arena its merge DAG demands. None of it outlives one merge, so it is borrowed from a
// package-level free list shared by every stream of the same scalar
// domain: a fleet of thousands of mostly-idle streams pays for its
// resident triangles and windows, not for per-stream append scratch, and a
// warm stream finds its staging again after a garbage collection.
type staging[T vec.Scalar] struct {
	pb, h  int             // tile rows of the staged block, and the height of all but its last
	tiles  []tile.Dense[T] // tiled batch views into arena
	tg     [][]T           // GEQRT T factors by stacked tile index
	t2     [][]T           // TSQRT/TTQRT T factors by stacked tile index
	arena  []T             // backing storage for the tiled batch copy
	tArena []T             // backing storage for the T factors
}

// stagingLists holds one free list per scalar domain (package-level
// variables cannot be generic), indexed by vec.Prec.
var stagingLists [4]sched.FreeList[any]

func getStaging[T vec.Scalar]() *staging[T] {
	if v, ok := stagingLists[vec.Prec[T]()].Get(); ok {
		return v.(*staging[T])
	}
	return &staging[T]{}
}

// putStaging returns st, counting its backing arrays as retained bytes.
func putStaging[T vec.Scalar](st *staging[T]) {
	var z T
	n := (cap(st.arena) + cap(st.tArena)) * int(unsafe.Sizeof(z))
	stagingLists[vec.Prec[T]()].Put(st, n)
}
