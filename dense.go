package tiledqr

import (
	"tiledqr/internal/tile"
)

// Scalar is the set of element types the package factors: the four
// precision domains of the paper's kernel family. Generic entry points
// (Mat, QR, FactorOf, Stream, NewStreamOf) are parameterized over it; the
// per-precision named types are aliases of their generic instantiations.
type Scalar interface {
	float32 | float64 | complex64 | complex128
}

// Mat is a row-major dense matrix over any supported scalar domain:
// element (i, j) lives at Data[i*Stride+j]. The named types Dense
// (float64), ZDense (complex128), Dense32 (float32) and CDense (complex64)
// are aliases of its four instantiations, so the historical per-precision
// API and the generic one are interchangeable.
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

// Dense is a row-major dense float64 matrix — an alias of Mat[float64].
type Dense = Mat[float64]

// NewDense allocates a zero r×c matrix.
func NewDense(r, c int) *Dense { return NewMat[float64](r, c) }

// RandomDense returns an r×c matrix with standard normal entries from a
// deterministic generator (useful for examples and benchmarks).
func RandomDense(r, c int, seed int64) *Dense { return RandomMat[float64](r, c, seed) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense { return (*Dense)(tile.Identity[float64](n)) }

// Mul returns the product a·b.
func Mul(a, b *Dense) *Dense {
	return (*Dense)(tile.Mul((*tile.Dense[float64])(a), (*tile.Dense[float64])(b)))
}

// Transpose returns aᵀ.
func Transpose(a *Dense) *Dense { return (*Dense)(tile.Transpose((*tile.Dense[float64])(a))) }

// FrobeniusNorm returns ‖a‖_F.
func FrobeniusNorm(a *Dense) float64 { return tile.FrobNorm((*tile.Dense[float64])(a)) }

// QRResidual returns ‖A − Q·R‖_F / ‖A‖_F, the scaled backward error of a
// factorization (Q must be m×k and R k×n).
func QRResidual(a, q, r *Dense) float64 {
	return tile.ResidualQR((*tile.Dense[float64])(a), (*tile.Dense[float64])(q), (*tile.Dense[float64])(r))
}

// OrthoResidual returns ‖QᵀQ − I‖_F, the loss of orthogonality of Q's
// columns.
func OrthoResidual(q *Dense) float64 { return tile.OrthoResidual((*tile.Dense[float64])(q)) }

// ZDense is a row-major dense complex128 matrix — an alias of
// Mat[complex128].
type ZDense = Mat[complex128]

// NewZDense allocates a zero r×c complex matrix.
func NewZDense(r, c int) *ZDense { return NewMat[complex128](r, c) }

// RandomZDense returns an r×c complex matrix with standard normal real and
// imaginary parts.
func RandomZDense(r, c int, seed int64) *ZDense { return RandomMat[complex128](r, c, seed) }

// ZIdentity returns the n×n complex identity.
func ZIdentity(n int) *ZDense { return (*ZDense)(tile.Identity[complex128](n)) }

// ZMul returns the product a·b.
func ZMul(a, b *ZDense) *ZDense {
	return (*ZDense)(tile.Mul((*tile.Dense[complex128])(a), (*tile.Dense[complex128])(b)))
}

// ZFrobeniusNorm returns ‖a‖_F.
func ZFrobeniusNorm(a *ZDense) float64 { return tile.FrobNorm((*tile.Dense[complex128])(a)) }

// ZQRResidual returns ‖A − Q·R‖_F / ‖A‖_F.
func ZQRResidual(a, q, r *ZDense) float64 {
	return tile.ResidualQR((*tile.Dense[complex128])(a), (*tile.Dense[complex128])(q), (*tile.Dense[complex128])(r))
}

// ZOrthoResidual returns ‖QᴴQ − I‖_F.
func ZOrthoResidual(q *ZDense) float64 { return tile.OrthoResidual((*tile.Dense[complex128])(q)) }

// Dense32 is a row-major dense float32 matrix — an alias of Mat[float32],
// factored by Factor32.
type Dense32 = Mat[float32]

// NewDense32 allocates a zero r×c float32 matrix.
func NewDense32(r, c int) *Dense32 { return NewMat[float32](r, c) }

// RandomDense32 returns an r×c float32 matrix with standard normal entries
// from a deterministic generator.
func RandomDense32(r, c int, seed int64) *Dense32 { return RandomMat[float32](r, c, seed) }

// Identity32 returns the n×n float32 identity.
func Identity32(n int) *Dense32 { return (*Dense32)(tile.Identity[float32](n)) }

// Mul32 returns the product a·b.
func Mul32(a, b *Dense32) *Dense32 {
	return (*Dense32)(tile.Mul((*tile.Dense[float32])(a), (*tile.Dense[float32])(b)))
}

// FrobeniusNorm32 returns ‖a‖_F.
func FrobeniusNorm32(a *Dense32) float64 { return tile.FrobNorm((*tile.Dense[float32])(a)) }

// QRResidual32 returns ‖A − Q·R‖_F / ‖A‖_F.
func QRResidual32(a, q, r *Dense32) float64 {
	return tile.ResidualQR((*tile.Dense[float32])(a), (*tile.Dense[float32])(q), (*tile.Dense[float32])(r))
}

// OrthoResidual32 returns ‖QᵀQ − I‖_F.
func OrthoResidual32(q *Dense32) float64 { return tile.OrthoResidual((*tile.Dense[float32])(q)) }

// CDense is a row-major dense complex64 matrix — an alias of
// Mat[complex64], factored by CFactor.
type CDense = Mat[complex64]

// NewCDense allocates a zero r×c complex64 matrix.
func NewCDense(r, c int) *CDense { return NewMat[complex64](r, c) }

// RandomCDense returns an r×c complex64 matrix with standard normal real
// and imaginary parts.
func RandomCDense(r, c int, seed int64) *CDense { return RandomMat[complex64](r, c, seed) }

// CIdentity returns the n×n complex64 identity.
func CIdentity(n int) *CDense { return (*CDense)(tile.Identity[complex64](n)) }

// CMul returns the product a·b.
func CMul(a, b *CDense) *CDense {
	return (*CDense)(tile.Mul((*tile.Dense[complex64])(a), (*tile.Dense[complex64])(b)))
}

// CFrobeniusNorm returns ‖a‖_F.
func CFrobeniusNorm(a *CDense) float64 { return tile.FrobNorm((*tile.Dense[complex64])(a)) }

// CQRResidual returns ‖A − Q·R‖_F / ‖A‖_F.
func CQRResidual(a, q, r *CDense) float64 {
	return tile.ResidualQR((*tile.Dense[complex64])(a), (*tile.Dense[complex64])(q), (*tile.Dense[complex64])(r))
}

// COrthoResidual returns ‖QᴴQ − I‖_F.
func COrthoResidual(q *CDense) float64 { return tile.OrthoResidual((*tile.Dense[complex64])(q)) }
