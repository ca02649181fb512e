package tiledqr

import (
	"tiledqr/internal/tile"
)

// Scalar is the set of element types the package factors: the four
// precision domains of the paper's kernel family. Generic entry points
// (Mat, QR, FactorOf, Stream, NewStreamOf) are parameterized over it.
type Scalar interface {
	float32 | float64 | complex64 | complex128
}

// Mat is a row-major dense matrix over any supported scalar domain:
// element (i, j) lives at Data[i*Stride+j]. The named types Dense
// (float64), ZDense (complex128), Dense32 (float32) and CDense (complex64)
// are aliases of its four instantiations.
type Mat[T Scalar] tile.Dense[T]

// NewMat allocates a zero r×c matrix in the scalar domain T.
func NewMat[T Scalar](r, c int) *Mat[T] { return (*Mat[T])(tile.NewDense[T](r, c)) }

// RandomMat returns an r×c matrix with standard normal entries (normal
// real and imaginary parts in the complex domains) from a deterministic
// generator.
func RandomMat[T Scalar](r, c int, seed int64) *Mat[T] {
	return (*Mat[T])(tile.RandDense[T](r, c, seed))
}

// At returns element (i, j).
func (a *Mat[T]) At(i, j int) T { return (*tile.Dense[T])(a).At(i, j) }

// Set assigns element (i, j).
func (a *Mat[T]) Set(i, j int, v T) { (*tile.Dense[T])(a).Set(i, j, v) }

// Clone returns a deep copy.
func (a *Mat[T]) Clone() *Mat[T] { return (*Mat[T])((*tile.Dense[T])(a).Clone()) }

// IdentityOf returns the n×n identity matrix in the scalar domain T.
func IdentityOf[T Scalar](n int) *Mat[T] { return (*Mat[T])(tile.Identity[T](n)) }

// MulOf returns the product a·b.
func MulOf[T Scalar](a, b *Mat[T]) *Mat[T] {
	return (*Mat[T])(tile.Mul((*tile.Dense[T])(a), (*tile.Dense[T])(b)))
}

// FrobeniusNormOf returns ‖a‖_F.
func FrobeniusNormOf[T Scalar](a *Mat[T]) float64 { return tile.FrobNorm((*tile.Dense[T])(a)) }

// QRResidualOf returns ‖A − Q·R‖_F / ‖A‖_F, the scaled backward error of a
// factorization (Q must be m×k and R k×n).
func QRResidualOf[T Scalar](a, q, r *Mat[T]) float64 {
	return tile.ResidualQR((*tile.Dense[T])(a), (*tile.Dense[T])(q), (*tile.Dense[T])(r))
}

// OrthoResidualOf returns ‖QᴴQ − I‖_F, the loss of orthogonality of Q's
// columns.
func OrthoResidualOf[T Scalar](q *Mat[T]) float64 { return tile.OrthoResidual((*tile.Dense[T])(q)) }

// Dense is a row-major dense float64 matrix — an alias of Mat[float64].
type Dense = Mat[float64]

// RandomDense returns an r×c matrix with standard normal entries from a
// deterministic generator (useful for examples and benchmarks).
func RandomDense(r, c int, seed int64) *Dense { return RandomMat[float64](r, c, seed) }

// Transpose returns aᵀ.
func Transpose(a *Dense) *Dense { return (*Dense)(tile.Transpose((*tile.Dense[float64])(a))) }

// ZDense is a row-major dense complex128 matrix — an alias of
// Mat[complex128].
type ZDense = Mat[complex128]

// Dense32 is a row-major dense float32 matrix — an alias of Mat[float32].
type Dense32 = Mat[float32]

// CDense is a row-major dense complex64 matrix — an alias of
// Mat[complex64].
type CDense = Mat[complex64]
