package tile

import (
	"fmt"

	"tiledqr/internal/vec"
)

// Grid describes the partition of an m×n matrix into p×q tiles. Tile
// columns are NB wide. The first Top tile rows are NB tall and every tile
// row below them is MB tall; on a square grid (NewGrid) MB = NB and Top is
// 0. The last tile row and column may be smaller (ragged edges). Tile
// indices are 0-based here; the paper-facing packages use 1-based indices
// and convert at the boundary. RowStart and TileRows are the one place the
// row geometry is read from.
type Grid struct {
	M, N int // element dimensions
	NB   int // tile width, and the height of the top Top tile rows
	MB   int // height of the tile rows below the top Top
	Top  int // leading tile rows NB tall
	P, Q int // tile dimensions
}

// NewGrid computes the square tile grid for an m×n matrix with tile size
// nb: every tile row nb tall.
func NewGrid(m, n, nb int) Grid { return NewTallGrid(m, n, nb, nb, 0) }

// NewTallGrid computes the grid for an m×n matrix with nb-wide tile
// columns whose first top tile rows are nb tall and whose other tile rows
// are mb tall.
func NewTallGrid(m, n, nb, mb, top int) Grid {
	if m <= 0 || n <= 0 || nb <= 0 || mb <= 0 || top < 0 {
		panic(fmt.Sprintf("tile: invalid grid m=%d n=%d nb=%d mb=%d top=%d", m, n, nb, mb, top))
	}
	if mb == nb {
		top = 0 // one row height: the square grid, whatever top says
	}
	p := (m + nb - 1) / nb
	if top < p {
		p = top + (m-top*nb+mb-1)/mb
	} else {
		top = p
	}
	return Grid{M: m, N: n, NB: nb, MB: mb, Top: top, P: p, Q: (n + nb - 1) / nb}
}

// minTallRows is the fewest tile rows FactorGrid leaves below the top q
// when it makes them taller than nb. List-scheduled in Table 1 units, the
// whole-tile kernels priced by row height (sim.GridWeights), Greedy/TT on
// 2 workers runs 21–32 % shorter on tall_ls's 2560×256 at nb = 64 with
// c = 2 and 4, and 24 % shorter on a 16384×128 panel at nb = 128 with
// c = 4. At 48 workers the same choices cost at most 8 % while 16 or more
// rows remain below the diagonal, and 48–53 % once only 9 or 10 do.
const minTallRows = 16

// FactorGrid returns the grid a factorization of an m×n matrix with tile
// size nb runs on. The top q tile rows, which hold the diagonal, are nb×nb
// tiles. The rows below them are cut into tiles MB = c·nb rows tall, c the
// largest of 4, 2 and 1 that leaves at least minTallRows of them: fewer,
// taller tiles mean fewer factor and elimination tasks, and GEQRT on a
// c·nb-row tile runs faster than the c GEQRTs and c−1 TTQRTs it replaces.
// c depends on the shape alone, never on the worker count, so every
// placement of one factorization runs the same tasks and gives the same
// bits. A matrix with fewer than minTallRows tile rows below the diagonal
// (and any wide one) keeps the square grid.
func FactorGrid(m, n, nb int) Grid {
	g := NewGrid(m, n, nb)
	for _, c := range []int{4, 2} {
		if (g.P-g.Q+c-1)/c >= minTallRows {
			return NewTallGrid(m, n, nb, c*nb, g.Q)
		}
	}
	return g
}

// RowStart returns the first matrix row of tile row i; RowStart(P) is M.
func (g Grid) RowStart(i int) int {
	r := i * g.NB
	if i > g.Top {
		r = g.Top*g.NB + (i-g.Top)*g.MB
	}
	return min(r, g.M)
}

// TileRows returns the height of tile row i.
func (g Grid) TileRows(i int) int {
	if i < 0 || i >= g.P {
		panic(fmt.Sprintf("tile: tile row %d out of range [0,%d)", i, g.P))
	}
	return g.RowStart(i+1) - g.RowStart(i)
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
			r0, c0 := m.RowStart(ti), tj*m.NB
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
			r0, c0 := m.RowStart(ti), tj*m.NB
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
