package tiledqr

import "context"

// The per-precision names of the original API: aliases of the generic
// types' instantiations and one-line shims over FactorOf, FactorIntoOf and
// NewStreamOf. They are the same types and the same code path, so the two
// spellings mix freely; new capabilities land on the generic names only.

// Factorization is QR[float64], the result of Factor.
type Factorization = QR[float64]

// ZFactorization is QR[complex128]. The paper evaluates double complex
// alongside double because complex arithmetic has a 4× higher
// computation-to-communication ratio, which favours the highly parallel TT
// algorithms (Section 4).
type ZFactorization = QR[complex128]

// Factorization32 is QR[float32]. Single precision halves the memory
// traffic per flop versus double: tiles stay cache-resident at twice the
// tile size, which is where the paper's communication-bound update kernels
// gain the most. Expect residuals around 1e-6·‖A‖ (versus 1e-15 for
// Factor).
type Factorization32 = QR[float32]

// CFactorization is QR[complex64]: the memory-traffic savings of Factor32
// combined with the computation-to-communication ratio of complex
// arithmetic. Expect residuals around 1e-6·‖A‖.
type CFactorization = QR[complex64]

// Factor is FactorOf[float64] without a context.
func Factor(a *Dense, opt Options) (*Factorization, error) { return FactorOf(nil, a, opt) }

// FactorCtx is FactorOf[float64].
func FactorCtx(ctx context.Context, a *Dense, opt Options) (*Factorization, error) {
	return FactorOf(ctx, a, opt)
}

// FactorInto is FactorIntoOf[float64] without a context.
func FactorInto(f *Factorization, a *Dense, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}

// FactorIntoCtx is FactorIntoOf[float64].
func FactorIntoCtx(ctx context.Context, f *Factorization, a *Dense, opt Options) error {
	return FactorIntoOf(ctx, f, a, opt)
}

// FactorComplex is FactorOf[complex128] without a context.
func FactorComplex(a *ZDense, opt Options) (*ZFactorization, error) { return FactorOf(nil, a, opt) }

// FactorComplexCtx is FactorOf[complex128].
func FactorComplexCtx(ctx context.Context, a *ZDense, opt Options) (*ZFactorization, error) {
	return FactorOf(ctx, a, opt)
}

// ZFactorInto is FactorIntoOf[complex128] without a context.
func ZFactorInto(f *ZFactorization, a *ZDense, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}

// ZFactorIntoCtx is FactorIntoOf[complex128].
func ZFactorIntoCtx(ctx context.Context, f *ZFactorization, a *ZDense, opt Options) error {
	return FactorIntoOf(ctx, f, a, opt)
}

// Factor32 is FactorOf[float32] without a context.
func Factor32(a *Dense32, opt Options) (*Factorization32, error) { return FactorOf(nil, a, opt) }

// Factor32Ctx is FactorOf[float32].
func Factor32Ctx(ctx context.Context, a *Dense32, opt Options) (*Factorization32, error) {
	return FactorOf(ctx, a, opt)
}

// FactorInto32 is FactorIntoOf[float32] without a context.
func FactorInto32(f *Factorization32, a *Dense32, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}

// FactorInto32Ctx is FactorIntoOf[float32].
func FactorInto32Ctx(ctx context.Context, f *Factorization32, a *Dense32, opt Options) error {
	return FactorIntoOf(ctx, f, a, opt)
}

// CFactor is FactorOf[complex64] without a context.
func CFactor(a *CDense, opt Options) (*CFactorization, error) { return FactorOf(nil, a, opt) }

// CFactorCtx is FactorOf[complex64].
func CFactorCtx(ctx context.Context, a *CDense, opt Options) (*CFactorization, error) {
	return FactorOf(ctx, a, opt)
}

// CFactorInto is FactorIntoOf[complex64] without a context.
func CFactorInto(f *CFactorization, a *CDense, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}

// CFactorIntoCtx is FactorIntoOf[complex64].
func CFactorIntoCtx(ctx context.Context, f *CFactorization, a *CDense, opt Options) error {
	return FactorIntoOf(ctx, f, a, opt)
}

// StreamQR is Stream[float64].
//
// Deprecated: use Stream[float64]; they are the same type.
type StreamQR = Stream[float64]

// ZStreamQR is Stream[complex128].
//
// Deprecated: use Stream[complex128]; they are the same type.
type ZStreamQR = Stream[complex128]

// StreamQR32 is Stream[float32]: half the resident-state memory and memory
// traffic of StreamQR, at single-precision accuracy (~1e-6 relative).
//
// Deprecated: use Stream[float32]; they are the same type.
type StreamQR32 = Stream[float32]

// CStreamQR is Stream[complex64].
//
// Deprecated: use Stream[complex64]; they are the same type.
type CStreamQR = Stream[complex64]

// NewStream is NewStreamOf[float64].
func NewStream(n int, opt Options) (*StreamQR, error) { return NewStreamOf[float64](n, opt) }

// NewZStream is NewStreamOf[complex128].
func NewZStream(n int, opt Options) (*ZStreamQR, error) { return NewStreamOf[complex128](n, opt) }

// NewStream32 is NewStreamOf[float32].
func NewStream32(n int, opt Options) (*StreamQR32, error) { return NewStreamOf[float32](n, opt) }

// NewCStream is NewStreamOf[complex64].
func NewCStream(n int, opt Options) (*CStreamQR, error) { return NewStreamOf[complex64](n, opt) }

// The dense helpers under their per-precision names: each is the generic
// IdentityOf, MulOf, FrobeniusNormOf, QRResidualOf or OrthoResidualOf at
// the precision its prefix or suffix names.

func Identity(n int) *Dense             { return IdentityOf[float64](n) }
func Mul(a, b *Dense) *Dense            { return MulOf(a, b) }
func FrobeniusNorm(a *Dense) float64    { return FrobeniusNormOf(a) }
func QRResidual(a, q, r *Dense) float64 { return QRResidualOf(a, q, r) }
func OrthoResidual(q *Dense) float64    { return OrthoResidualOf(q) }

func ZIdentity(n int) *ZDense             { return IdentityOf[complex128](n) }
func ZMul(a, b *ZDense) *ZDense           { return MulOf(a, b) }
func ZFrobeniusNorm(a *ZDense) float64    { return FrobeniusNormOf(a) }
func ZQRResidual(a, q, r *ZDense) float64 { return QRResidualOf(a, q, r) }
func ZOrthoResidual(q *ZDense) float64    { return OrthoResidualOf(q) }

func Identity32(n int) *Dense32             { return IdentityOf[float32](n) }
func Mul32(a, b *Dense32) *Dense32          { return MulOf(a, b) }
func FrobeniusNorm32(a *Dense32) float64    { return FrobeniusNormOf(a) }
func QRResidual32(a, q, r *Dense32) float64 { return QRResidualOf(a, q, r) }
func OrthoResidual32(q *Dense32) float64    { return OrthoResidualOf(q) }

func CIdentity(n int) *CDense             { return IdentityOf[complex64](n) }
func CMul(a, b *CDense) *CDense           { return MulOf(a, b) }
func CFrobeniusNorm(a *CDense) float64    { return FrobeniusNormOf(a) }
func CQRResidual(a, q, r *CDense) float64 { return QRResidualOf(a, q, r) }
func COrthoResidual(q *CDense) float64    { return OrthoResidualOf(q) }
