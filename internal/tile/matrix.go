package tile

import (
	"fmt"

	"tiledqr/internal/vec"
)

// Grid describes the partition of an m×n matrix into p×q tiles with nominal
// tile size nb. Interior tiles are nb×nb; the last tile row/column may be
// smaller (ragged edges). Tile indices are 0-based here; the paper-facing
// packages use 1-based indices and convert at the boundary.
type Grid struct {
	M, N int // element dimensions
	NB   int // nominal tile size
	P, Q int // tile dimensions
}

// NewGrid computes the tile grid for an m×n matrix with tile size nb.
func NewGrid(m, n, nb int) Grid {
	if m <= 0 || n <= 0 || nb <= 0 {
		panic(fmt.Sprintf("tile: invalid grid m=%d n=%d nb=%d", m, n, nb))
	}
	return Grid{M: m, N: n, NB: nb, P: (m + nb - 1) / nb, Q: (n + nb - 1) / nb}
}

// TileRows returns the height of tile row i.
func (g Grid) TileRows(i int) int {
	if i < 0 || i >= g.P {
		panic(fmt.Sprintf("tile: tile row %d out of range [0,%d)", i, g.P))
	}
	if i == g.P-1 {
		return g.M - (g.P-1)*g.NB
	}
	return g.NB
}

// TileCols returns the width of tile column j.
func (g Grid) TileCols(j int) int {
	if j < 0 || j >= g.Q {
		panic(fmt.Sprintf("tile: tile column %d out of range [0,%d)", j, g.Q))
	}
	if j == g.Q-1 {
		return g.N - (g.Q-1)*g.NB
	}
	return g.NB
}

// MinPQ returns min(p, q), the number of panel columns to factor.
func (g Grid) MinPQ() int {
	if g.P < g.Q {
		return g.P
	}
	return g.Q
}

// Matrix is a tiled matrix: each tile is stored contiguously (PLASMA "tile
// layout"), which is what gives the tiled kernels their locality.
type Matrix[T vec.Scalar] struct {
	Grid
	Tiles []*Dense[T] // row-major: Tiles[i*Q+j]
}

// NewMatrix allocates a zero tiled matrix for the given grid: one
// contiguous payload arena plus one header slab, regardless of p×q.
func NewMatrix[T vec.Scalar](g Grid) *Matrix[T] {
	return NewMatrixOn[T](g, make([]T, g.M*g.N))
}

// NewMatrixOn builds a tiled matrix for grid g whose tile payloads are
// carved, tile after tile, out of buf (len(buf) ≥ g.M·g.N) and whose
// headers live in a single slab — the whole matrix is two allocations, and
// callers owning buf (the factorization arena) get zero payload
// allocations on reuse. Tile data capacities are clipped so kernels cannot
// overrun into a neighbouring tile.
func NewMatrixOn[T vec.Scalar](g Grid, buf []T) *Matrix[T] {
	if len(buf) < g.M*g.N {
		panic(fmt.Sprintf("tile: arena holds %d scalars, grid needs %d", len(buf), g.M*g.N))
	}
	hdrs := make([]Dense[T], g.P*g.Q)
	m := &Matrix[T]{Grid: g, Tiles: make([]*Dense[T], g.P*g.Q)}
	off := 0
	for i := 0; i < g.P; i++ {
		for j := 0; j < g.Q; j++ {
			r, c := g.TileRows(i), g.TileCols(j)
			hdrs[i*g.Q+j] = Dense[T]{Rows: r, Cols: c, Stride: c, Data: buf[off : off+r*c : off+r*c]}
			m.Tiles[i*g.Q+j] = &hdrs[i*g.Q+j]
			off += r * c
		}
	}
	return m
}

// Tile returns tile (i, j), 0-based.
func (m *Matrix[T]) Tile(i, j int) *Dense[T] { return m.Tiles[i*m.Q+j] }

// CopyFrom copies a dense matrix of the grid's shape into the tile layout,
// overwriting every element of every tile, in one serial pass. The
// factorization engine does not use it: there each tile is filled inside
// the task DAG by the first task that writes it (engine.Fill).
func (m *Matrix[T]) CopyFrom(a *Dense[T]) {
	if a.Rows != m.M || a.Cols != m.N {
		panic(fmt.Sprintf("tile: CopyFrom shape %d×%d into %d×%d grid", a.Rows, a.Cols, m.M, m.N))
	}
	for ti := 0; ti < m.P; ti++ {
		for tj := 0; tj < m.Q; tj++ {
			blk := m.Tile(ti, tj)
			r0, c0 := ti*m.NB, tj*m.NB
			for r := 0; r < blk.Rows; r++ {
				copy(blk.Data[r*blk.Stride:r*blk.Stride+blk.Cols],
					a.Data[(r0+r)*a.Stride+c0:(r0+r)*a.Stride+c0+blk.Cols])
			}
		}
	}
}

// FromDense converts a dense matrix to tile layout with tile size nb.
func FromDense[T vec.Scalar](a *Dense[T], nb int) *Matrix[T] {
	t := NewMatrix[T](NewGrid(a.Rows, a.Cols, nb))
	t.CopyFrom(a)
	return t
}

// ToDense converts a tiled matrix back to a row-major dense matrix.
func (m *Matrix[T]) ToDense() *Dense[T] {
	a := NewDense[T](m.M, m.N)
	for ti := 0; ti < m.P; ti++ {
		for tj := 0; tj < m.Q; tj++ {
			blk := m.Tile(ti, tj)
			r0, c0 := ti*m.NB, tj*m.NB
			for r := 0; r < blk.Rows; r++ {
				copy(a.Data[(r0+r)*a.Stride+c0:(r0+r)*a.Stride+c0+blk.Cols],
					blk.Data[r*blk.Stride:r*blk.Stride+blk.Cols])
			}
		}
	}
	return a
}

// Clone returns a deep copy of the tiled matrix.
func (m *Matrix[T]) Clone() *Matrix[T] {
	c := &Matrix[T]{Grid: m.Grid, Tiles: make([]*Dense[T], len(m.Tiles))}
	for i, t := range m.Tiles {
		c.Tiles[i] = t.Clone()
	}
	return c
}
