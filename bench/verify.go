package main

import (
	"fmt"
	"math"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// The checks below are written with plain loops over the matrix elements,
// not with the library's kernels: a kernel that goes wrong must not also
// bend the ruler. All results are in multiples of the double-precision unit
// roundoff, which is also that of complex128.
const eps = 0x1p-52

// qrResidual returns ‖A − Q·R‖_F / ‖A‖_F for a thin Q (m×k) and an upper
// trapezoidal R (k×n).
func qrResidual[T vec.Scalar](a, q, r *tile.Dense[T]) float64 {
	var num, den float64
	row := make([]T, a.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(row, a.Data[i*a.Stride:i*a.Stride+a.Cols])
		for k := 0; k < q.Cols; k++ {
			qik := q.Data[i*q.Stride+k]
			rk := r.Data[k*r.Stride : k*r.Stride+r.Cols]
			for j := k; j < a.Cols; j++ {
				row[j] -= qik * rk[j]
			}
		}
		for j, v := range row {
			num += vec.Abs2(v)
			den += vec.Abs2(a.Data[i*a.Stride+j])
		}
	}
	return math.Sqrt(num / den)
}

// gram returns the upper triangle of AᴴA (n×n, row-major; the strictly
// lower part is left zero).
func gram[T vec.Scalar](a *tile.Dense[T]) []T {
	n := a.Cols
	g := make([]T, n*n)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+n]
		for k, v := range row {
			c := vec.Conj(v)
			gk := g[k*n : k*n+n]
			for j := k; j < n; j++ {
				gk[j] += c * row[j]
			}
		}
	}
	return g
}

// upperDiffNorm returns ‖G − H‖_F and ‖H‖_F for two Hermitian matrices
// given by their upper triangles.
func upperDiffNorm[T vec.Scalar](g, h []T, n int) (diff, norm float64) {
	for k := 0; k < n; k++ {
		for j := k; j < n; j++ {
			w := 2.0
			if j == k {
				w = 1
			}
			diff += w * vec.Abs2(g[k*n+j]-h[k*n+j])
			norm += w * vec.Abs2(h[k*n+j])
		}
	}
	return math.Sqrt(diff), math.Sqrt(norm)
}

// orthoResidual returns ‖I − QᴴQ‖_F.
func orthoResidual[T vec.Scalar](q *tile.Dense[T]) float64 {
	n := q.Cols
	id := make([]T, n*n)
	for k := 0; k < n; k++ {
		id[k*n+k] = 1
	}
	d, _ := upperDiffNorm(gram(q), id, n)
	return d
}

// gramResidual returns ‖RᴴR − AᴴA‖_F / ‖AᴴA‖_F: R is a triangular factor of
// A up to a unitary transformation of the rows, whatever order the rows
// were reduced in. It is the check for results that carry no Q.
func gramResidual[T vec.Scalar](a, r *tile.Dense[T]) float64 {
	d, nrm := upperDiffNorm(gram(upperOf(r)), gram(a), a.Cols)
	return d / nrm
}

// upperOf returns r with everything below the diagonal cleared, so that a
// factor that wrongly leaves entries there fails the Gram check.
func upperOf[T vec.Scalar](r *tile.Dense[T]) *tile.Dense[T] {
	u := r.Clone()
	for i := 0; i < u.Rows; i++ {
		for j := 0; j < min(i, u.Cols); j++ {
			u.Data[i*u.Stride+j] = 0
		}
	}
	return u
}

// relDiff returns ‖x − ref‖_F / ‖ref‖_F.
func relDiff[T vec.Scalar](x, ref *tile.Dense[T]) (float64, error) {
	if x == nil || x.Rows != ref.Rows || x.Cols != ref.Cols {
		return 0, fmt.Errorf("solution has the wrong shape")
	}
	var num, den float64
	for i := 0; i < ref.Rows; i++ {
		for j := 0; j < ref.Cols; j++ {
			num += vec.Abs2(x.At(i, j) - ref.At(i, j))
			den += vec.Abs2(ref.At(i, j))
		}
	}
	return math.Sqrt(num / den), nil
}

// solveFromQR returns the least-squares solution R⁻¹·Qᴴb from a thin Q and
// the leading n×n triangle of R.
func solveFromQR[T vec.Scalar](q, r, b *tile.Dense[T]) *tile.Dense[T] {
	n := q.Cols
	x := tile.NewDense[T](n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		y := make([]T, n)
		for i := 0; i < q.Rows; i++ {
			bi := b.At(i, c)
			for k := 0; k < n; k++ {
				y[k] += vec.Conj(q.Data[i*q.Stride+k]) * bi
			}
		}
		for k := n - 1; k >= 0; k-- {
			s := y[k]
			for j := k + 1; j < n; j++ {
				s -= r.At(k, j) * x.At(j, c)
			}
			x.Set(k, c, s/r.At(k, k))
		}
	}
	return x
}

// solveFromR returns the least-squares solution of the semi-normal
// equations RᴴR·x = Aᴴb: the check for results that carry R and x but no Q.
func solveFromR[T vec.Scalar](a, r, b *tile.Dense[T]) *tile.Dense[T] {
	n := a.Cols
	x := tile.NewDense[T](n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		y := make([]T, n) // Aᴴb, then R⁻ᴴ of it
		for i := 0; i < a.Rows; i++ {
			bi := b.At(i, c)
			for k := 0; k < n; k++ {
				y[k] += vec.Conj(a.Data[i*a.Stride+k]) * bi
			}
		}
		for k := 0; k < n; k++ {
			s := y[k]
			for j := 0; j < k; j++ {
				s -= vec.Conj(r.At(j, k)) * y[j]
			}
			y[k] = s / vec.Conj(r.At(k, k))
		}
		for k := n - 1; k >= 0; k-- {
			s := y[k]
			for j := k + 1; j < n; j++ {
				s -= r.At(k, j) * x.At(j, c)
			}
			x.Set(k, c, s/r.At(k, k))
		}
	}
	return x
}

// finite reports whether every entry is a number.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
