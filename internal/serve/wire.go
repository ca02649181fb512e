// Package serve implements the HTTP serving layer behind cmd/qrserve: JSON
// wire encoding for matrices in all four precisions, one-shot factor/solve
// handlers, streaming-TSQR sessions, fail-fast admission (a runtime
// queue-depth bound and a server-wide budget on request-body bytes in
// flight; compute in server.go), same-matrix solve coalescing (solves that
// arrive while an identical matrix is being factored share that
// factorization; coalesce.go), and latency statistics. Everything is plain
// net/http over the public tiledqr API, so the package is unit-testable
// with httptest and no sockets.
//
// A served request costs what its computation costs only if each byte of
// its matrices is touched once, so the request path is read → walk → scan →
// adopt (body.go, number.go):
//
//   - read: the whole body goes into a pooled byte buffer sized from
//     Content-Length, behind http.MaxBytesReader; too large is 413.
//   - walk: decodeBody steps through the top-level object once, matching
//     keys the way encoding/json does, and hands the small values
//     (precision, options, rows, cols) to encoding/json on their exact
//     spans, so their semantics are encoding/json's by construction.
//   - scan: each "data" array is counted (commas), allocated once at its
//     exact size, and filled by scanNumber, which validates the RFC 8259
//     grammar and converts in the same pass — exactly, in 128-bit integer
//     arithmetic, for up to 19 digits and a decimal exponent within ±19;
//     strconv.ParseFloat for the rest. The accept/reject set is
//     encoding/json's except that a null element is an error.
//   - adopt: in double precision the parsed []float64 is the Mat[float64]
//     storage (decode); the other precisions narrow once. Parsed slices are
//     request-owned and never pooled: a right-hand side that joined a
//     coalesced batch is read by the batch's leader, and a leader's matrix is
//     what later arrivals are compared with.
//
// Replies are encoded completely before the status line is written, so a
// result JSON cannot carry is a 422, not a 200 with half a body.
package serve

import (
	"errors"
	"fmt"

	"tiledqr"
	"tiledqr/internal/vec"
)

// Matrix is the wire form of a dense row-major matrix. For the real
// precisions ("d", "s") Data holds rows·cols values; for the complex
// precisions ("z", "c") it holds 2·rows·cols values with the real and
// imaginary parts of each element interleaved, row-major. The single
// precisions travel as JSON numbers like the doubles and are narrowed on
// decode.
type Matrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// errNilMatrix reports a request missing a required matrix field.
var errNilMatrix = errors.New("missing matrix")

// check validates the shape against the element count, with maxElems
// bounding rows·cols so a hostile request cannot make the server allocate
// without bound.
func (m *Matrix) check(isComplex bool, maxElems int) error {
	if m == nil {
		return errNilMatrix
	}
	if m.Rows < 1 || m.Cols < 1 {
		return fmt.Errorf("matrix shape %d×%d is invalid", m.Rows, m.Cols)
	}
	if maxElems > 0 && (m.Rows > maxElems/m.Cols) {
		return fmt.Errorf("matrix %d×%d exceeds the %d-element limit", m.Rows, m.Cols, maxElems)
	}
	want := m.Rows * m.Cols
	if isComplex {
		want *= 2
	}
	if len(m.Data) != want {
		return fmt.Errorf("matrix %d×%d wants %d data values, got %d", m.Rows, m.Cols, want, len(m.Data))
	}
	return nil
}

// decode converts a checked wire matrix into a dense matrix of T's domain.
// In double precision the wire data already is the dense storage and is
// adopted, not copied: m.Data is a request-owned slice no pool ever sees
// again, and factorizations, solves and stream appends never write their
// inputs. The other precisions narrow or pair the values into fresh storage.
func decode[T vec.Scalar](m *Matrix) *tiledqr.Mat[T] { return hcat[T]([]*Matrix{m}) }

// encode converts a dense matrix back to the wire form.
func encode[T vec.Scalar](d *tiledqr.Mat[T]) *Matrix { return splitCols(d, []int{d.Cols})[0] }

// hcat concatenates checked wire matrices with equal row counts column-wise
// into one dense matrix — the coalescing path stacks many small right-hand
// sides into a single multi-column solve. One double-precision matrix is
// adopted as it is (see decode).
func hcat[T vec.Scalar](ms []*Matrix) *tiledqr.Mat[T] {
	if data, ok := any(ms[0].Data).([]T); ok && len(ms) == 1 {
		return &tiledqr.Mat[T]{Rows: ms[0].Rows, Cols: ms[0].Cols, Stride: ms[0].Cols, Data: data}
	}
	isComplex := vec.IsComplex[T]()
	rows, cols := ms[0].Rows, 0
	for _, m := range ms {
		cols += m.Cols
	}
	d := tiledqr.NewMat[T](rows, cols)
	off := 0
	for _, m := range ms {
		for i := 0; i < rows; i++ {
			row := d.Data[i*d.Stride+off:]
			if isComplex {
				src := m.Data[2*i*m.Cols:]
				for j := 0; j < m.Cols; j++ {
					row[j] = vec.FromParts[T](src[2*j], src[2*j+1])
				}
			} else {
				src := m.Data[i*m.Cols:]
				for j := 0; j < m.Cols; j++ {
					row[j] = vec.FromParts[T](src[j], 0)
				}
			}
		}
		off += m.Cols
	}
	return d
}

// splitCols converts consecutive column blocks of the given widths to the
// wire form: a batch's solution back into per-request blocks, or, as one
// block, a whole matrix (encode).
func splitCols[T vec.Scalar](x *tiledqr.Mat[T], widths []int) []*Matrix {
	out := make([]*Matrix, len(widths))
	off := 0
	for k, w := range widths {
		m := &Matrix{Rows: x.Rows, Cols: w}
		if vec.IsComplex[T]() {
			m.Data = make([]float64, 2*x.Rows*w)
			for i := 0; i < x.Rows; i++ {
				row := x.Data[i*x.Stride+off:]
				dst := m.Data[2*i*w:]
				for j := 0; j < w; j++ {
					dst[2*j] = vec.RealPart(row[j])
					dst[2*j+1] = vec.ImagPart(row[j])
				}
			}
		} else {
			m.Data = make([]float64, x.Rows*w)
			for i := 0; i < x.Rows; i++ {
				row := x.Data[i*x.Stride+off:]
				for j := 0; j < w; j++ {
					m.Data[i*w+j] = vec.RealPart(row[j])
				}
			}
		}
		out[k] = m
		off += w
	}
	return out
}
