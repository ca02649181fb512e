package tiledqr

// The per-precision names that the repository benchmark (bench/) still
// calls: aliases of the generic instantiations and one-line shims over
// FactorOf and FactorIntoOf. They are the same types and the same code
// path as the generic names, which are the API; these go when the
// benchmark moves to the generic names (ROADMAP: Yardstick v2, item h).

// Factorization is QR[float64], the result of Factor.
type Factorization = QR[float64]

// ZFactorization is QR[complex128], the result of FactorComplex.
type ZFactorization = QR[complex128]

// Factor is FactorOf[float64] without a context.
func Factor(a *Dense, opt Options) (*Factorization, error) { return FactorOf(nil, a, opt) }

// FactorInto is FactorIntoOf[float64] without a context.
func FactorInto(f *Factorization, a *Dense, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}

// FactorComplex is FactorOf[complex128] without a context.
func FactorComplex(a *ZDense, opt Options) (*ZFactorization, error) { return FactorOf(nil, a, opt) }

// ZFactorInto is FactorIntoOf[complex128] without a context.
func ZFactorInto(f *ZFactorization, a *ZDense, opt Options) error {
	return FactorIntoOf(nil, f, a, opt)
}
