// The wire layer of the distributed CAQR runtime: length-prefixed binary
// frames over plain TCP carrying packed tile payloads. The format is as
// small as correctness allows — communication avoidance starts with what
// goes on the wire, so a reduction-tree edge carries one TSQR aggregate:
// the packed R triangle (n(n+1)/2 scalars, not n² and never the
// trailing matrix), the n×nrhs Qᵀb block, the residual norm and the row
// count. The shard is the one bulk transfer: it travels as chunks of whole
// tile rows, each written from a byte view of the caller's matrix and read
// straight into its place in the worker's shard (writeRows, readRows), so
// no shard byte is copied in user space on the way. Aggregates go through
// pooled buffers.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "QRD1"
//	4       1     kind (frame kinds below)
//	5       1     precision letter ('d','s','z','c'; 0 for control frames)
//	6       2     reserved (zero)
//	8       4     seq   (kind-specific, see the frame kinds)
//	12      4     rows
//	16      4     cols
//	20      4     payload length in bytes
//	24      ...   payload
//
// Scalars are packed little-endian in row-major order; complex values as
// interleaved (re, im) pairs, so a complex64 costs 8 bytes and a
// complex128 costs 16 — on a little-endian host exactly their layout in
// memory. Control frames (hello, config, stats, errors) carry JSON
// payloads; bulk frames (shard chunks, aggregates) carry packed scalars.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"unsafe"

	"tiledqr/internal/vec"
)

// Frame kinds. The handshake is Hello → Config; then the shard arrives as
// chunks of whole tile rows, each Shard frame followed by the RHS frame of
// the same rows when the run has right-hand sides, and the worker merges
// every chunk as it arrives. A run moves one Agg frame up every edge of the
// reduction tree and one from the tree root to the coordinator; a worker
// ends with Stats (or Err) and the coordinator answers the whole run with
// Done.
const (
	KindHello     byte = iota + 1 // worker → coordinator: JSON helloMsg
	KindConfig                    // coordinator → worker: JSON wireConfig
	KindShard                     // coordinator → worker: shard rows; seq = first row in the shard
	KindRHS                       // coordinator → worker: RHS rows; seq = first row in the shard
	KindAgg                       // one TSQR aggregate (packAgg); seq = 0
	KindPeerHello                 // worker → worker: seq = sender rank
	KindStats                     // worker → coordinator: JSON WorkerStats
	KindDone                      // coordinator → worker: run complete, disconnect
	KindErr                       // worker → coordinator: JSON errMsg

	kindMax = KindErr
)

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 24

// MaxPayload bounds a frame's payload; ReadFrame rejects anything larger
// before allocating, so a corrupt or hostile length field cannot OOM the
// receiver.
const MaxPayload = 1 << 30

var magic = [4]byte{'Q', 'R', 'D', '1'}

// Frame is one decoded wire frame. Payload aliases the read buffer handed
// to ReadFrame; it is valid until that buffer is reused.
type Frame struct {
	Kind    byte
	Prec    byte
	Seq     uint32
	Rows    uint32
	Cols    uint32
	Payload []byte
}

// putHeader encodes a frame header into dst[:HeaderLen].
func putHeader(dst []byte, f *Frame, payloadLen int) {
	copy(dst[:4], magic[:])
	dst[4] = f.Kind
	dst[5] = f.Prec
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint32(dst[8:], f.Seq)
	binary.LittleEndian.PutUint32(dst[12:], f.Rows)
	binary.LittleEndian.PutUint32(dst[16:], f.Cols)
	binary.LittleEndian.PutUint32(dst[20:], uint32(payloadLen))
}

// WriteFrame writes one frame (header + payload) to w, returning the bytes
// written. Senders on hot paths pre-frame into a pooled buffer and write
// once instead (see packFrame); WriteFrame is the handshake/control path.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	var hdr [HeaderLen]byte
	putHeader(hdr[:], f, len(f.Payload))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(f.Payload)
	return n + m, err
}

// packFrame appends a fully framed message (header + payload built by
// fill) to a pooled buffer and returns it; the caller hands it to a writer
// and recycles it with putBuf. One buffer, one Write call, zero copies
// beyond the packing itself.
func packFrame(f *Frame, payloadLen int, fill func(dst []byte)) []byte {
	buf := getBuf(HeaderLen + payloadLen)
	putHeader(buf, f, payloadLen)
	fill(buf[HeaderLen:])
	return buf
}

// ReadFrame reads and validates one frame from r. buf is an optional
// reusable payload buffer: the returned Frame's Payload is a prefix of the
// returned slice, which the caller passes back in on the next read. A
// truncated stream surfaces as io.ErrUnexpectedEOF; a malformed header
// (bad magic, unknown kind, oversized payload) as a descriptive error
// before any payload is read.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	f, plen, err := readHeader(r)
	if err != nil {
		return Frame{}, buf, err
	}
	if cap(buf) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, noEOF(err)
	}
	f.Payload = buf
	return f, buf, nil
}

// readHeader reads and validates one frame header from r and returns the
// frame (without payload) and its payload length, which is still unread.
func readHeader(r io.Reader) (Frame, int, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if [4]byte(hdr[:4]) != magic {
		return Frame{}, 0, fmt.Errorf("dist: bad frame magic %q", hdr[:4])
	}
	f := Frame{
		Kind: hdr[4],
		Prec: hdr[5],
		Seq:  binary.LittleEndian.Uint32(hdr[8:]),
		Rows: binary.LittleEndian.Uint32(hdr[12:]),
		Cols: binary.LittleEndian.Uint32(hdr[16:]),
	}
	if f.Kind == 0 || f.Kind > kindMax {
		return Frame{}, 0, fmt.Errorf("dist: unknown frame kind %d", f.Kind)
	}
	plen := binary.LittleEndian.Uint32(hdr[20:])
	if plen > MaxPayload {
		return Frame{}, 0, fmt.Errorf("dist: frame payload %d exceeds limit %d", plen, MaxPayload)
	}
	return f, int(plen), nil
}

// noEOF turns an EOF inside a frame into io.ErrUnexpectedEOF: only a
// stream that ends between frames ends cleanly.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// bufPool recycles framed send buffers and received payload copies, so a
// warm run allocates no wire memory.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf(n int) []byte {
	b := *bufPool.Get().(*[]byte)
	if cap(b) < n {
		b = make([]byte, n)
	}
	return b[:n]
}

func putBuf(b []byte) {
	if b == nil {
		return
	}
	bufPool.Put(&b)
}

// scalarBytes returns the wire size of one scalar of T, which is its size
// in memory (complex values travel as interleaved re/im).
func scalarBytes[T vec.Scalar]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// PackScalars encodes src into dst little-endian (complex interleaved
// re/im) and returns the bytes consumed. dst must hold
// len(src)·scalarBytes[T]() bytes.
func PackScalars[T vec.Scalar](dst []byte, src []T) int {
	switch s := any(src).(type) {
	case []float32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
		return 4 * len(s)
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		return 8 * len(s)
	case []complex64:
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[8*i:], math.Float32bits(real(v)))
			binary.LittleEndian.PutUint32(dst[8*i+4:], math.Float32bits(imag(v)))
		}
		return 8 * len(s)
	default:
		z := any(src).([]complex128)
		for i, v := range z {
			binary.LittleEndian.PutUint64(dst[16*i:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(dst[16*i+8:], math.Float64bits(imag(v)))
		}
		return 16 * len(z)
	}
}

// UnpackScalars decodes len(dst) scalars from src, the inverse of
// PackScalars. It returns an error (not a short read) when src is too
// small, so a truncated frame is rejected instead of half-applied.
func UnpackScalars[T vec.Scalar](dst []T, src []byte) error {
	if need := len(dst) * scalarBytes[T](); len(src) < need {
		return fmt.Errorf("dist: scalar payload %d bytes, need %d", len(src), need)
	}
	switch d := any(dst).(type) {
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []complex64:
		for i := range d {
			d[i] = complex(
				math.Float32frombits(binary.LittleEndian.Uint32(src[8*i:])),
				math.Float32frombits(binary.LittleEndian.Uint32(src[8*i+4:])))
		}
	default:
		z := any(dst).([]complex128)
		for i := range z {
			z[i] = complex(
				math.Float64frombits(binary.LittleEndian.Uint64(src[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(src[16*i+8:])))
		}
	}
	return nil
}

// TriLen returns the element count of a packed n×n upper triangle.
func TriLen(n int) int { return n * (n + 1) / 2 }

// PackTriangle encodes the upper triangle of the n×n matrix r (row stride
// ldr) into dst, row-major packed — the communication-avoiding payload:
// n(n+1)/2 scalars instead of n². Returns the bytes written.
func PackTriangle[T vec.Scalar](dst []byte, r []T, ldr, n int) int {
	off := 0
	for i := 0; i < n; i++ {
		off += PackScalars(dst[off:], r[i*ldr+i:i*ldr+n])
	}
	return off
}

// UnpackTriangle decodes a packed upper triangle into the n×n matrix r
// (row stride ldr), leaving the strictly lower part untouched.
func UnpackTriangle[T vec.Scalar](r []T, ldr, n int, src []byte) error {
	sz := scalarBytes[T]()
	if need := TriLen(n) * sz; len(src) < need {
		return fmt.Errorf("dist: triangle payload %d bytes, need %d", len(src), need)
	}
	off := 0
	for i := 0; i < n; i++ {
		w := n - i
		if err := UnpackScalars(r[i*ldr+i:i*ldr+n], src[off:off+w*sz]); err != nil {
			return err
		}
		off += w * sz
	}
	return nil
}

// hostLittleEndian reports whether scalars sit in memory in their wire
// encoding, so that rows can go to and come off the socket unpacked.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView reinterprets s as the bytes it occupies in memory.
func byteView[T vec.Scalar](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*scalarBytes[T]())
}

// writeRows sends rows×cols scalars of a (row stride ld) as one frame of
// kind k with sequence seq. Contiguous rows on a little-endian host go out
// as the header and a byte view of a itself, in one vectored write;
// strided rows, or any row on a big-endian host, are packed first into a
// pooled buffer.
func writeRows[T vec.Scalar](w io.Writer, k byte, seq uint32, a []T, ld, rows, cols int) error {
	f := &Frame{Kind: k, Prec: vec.Prec[T]().Tag()[0], Seq: seq, Rows: uint32(rows), Cols: uint32(cols)}
	rowBytes := cols * scalarBytes[T]()
	if !hostLittleEndian || (ld != cols && rows > 1) {
		buf := packFrame(f, rows*rowBytes, func(dst []byte) {
			for i := 0; i < rows; i++ {
				PackScalars(dst[i*rowBytes:], a[i*ld:i*ld+cols])
			}
		})
		_, err := w.Write(buf)
		putBuf(buf)
		return err
	}
	hdr := make([]byte, HeaderLen)
	putHeader(hdr, f, rows*rowBytes)
	bufs := net.Buffers{hdr, byteView(a[:rows*cols])}
	_, err := bufs.WriteTo(w)
	return err
}

// errBadChunk marks a shard or RHS frame whose header does not fit the
// rows it should carry.
var errBadChunk = errors.New("dist: bad shard chunk")

// readRows reads from r one frame of kind k that carries rows seq, seq+1,
// … of a cols-wide block, and decodes it into dst, which holds the rows
// still due (row stride cols). The header is checked before any payload
// is read: the kind, T's precision, Seq, the columns, 1 ≤ rows ≤
// len(dst)/cols and the payload length must all fit, or the frame is
// refused with errBadChunk. On a little-endian host the payload is read
// straight into dst. It returns the rows read.
func readRows[T vec.Scalar](r io.Reader, k byte, seq uint32, dst []T, cols int) (int, error) {
	f, plen, err := readHeader(r)
	if err != nil {
		return 0, err
	}
	prec, rows, due := vec.Prec[T]().Tag()[0], int(f.Rows), len(dst)/cols
	switch {
	case f.Kind != k:
		err = fmt.Errorf("%w: frame kind %d at row %d, want kind %d", errBadChunk, f.Kind, seq, k)
	case f.Prec != prec:
		err = fmt.Errorf("%w: precision %q at row %d, want %q", errBadChunk, f.Prec, seq, prec)
	case f.Seq != seq:
		err = fmt.Errorf("%w: kind %d chunk starts at row %d, want row %d", errBadChunk, k, f.Seq, seq)
	case int(f.Cols) != cols:
		err = fmt.Errorf("%w: kind %d chunk of %d columns, want %d", errBadChunk, k, f.Cols, cols)
	case rows < 1 || rows > due:
		err = fmt.Errorf("%w: kind %d chunk of %d rows at row %d, want 1 to %d", errBadChunk, k, rows, seq, due)
	case plen != rows*cols*scalarBytes[T]():
		err = fmt.Errorf("%w: kind %d chunk of %d×%d in %d bytes, want %d", errBadChunk, k, rows, cols, plen, rows*cols*scalarBytes[T]())
	}
	if err != nil {
		return 0, err
	}
	out := dst[:rows*cols]
	if hostLittleEndian {
		if _, err := io.ReadFull(r, byteView(out)); err != nil {
			return 0, noEOF(err)
		}
		return rows, nil
	}
	buf := getBuf(plen)
	defer putBuf(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, noEOF(err)
	}
	return rows, UnpackScalars(out, buf)
}

// aggLen is the payload length of an aggregate over n columns and nrhs
// right-hand sides: its scalars, then 16 bytes of residual norm (float64
// bits) and row count (uint64).
func aggLen[T vec.Scalar](n, nrhs int) int {
	return (TriLen(n)+n*nrhs)*scalarBytes[T]() + 16
}

// packAgg frames a TSQR aggregate into a pooled buffer: the
// packed upper triangle of r (n×n, row stride n), the n×nrhs Qᵀb block qtb
// (row stride nrhs), the residual norm and the number of rows represented.
func packAgg[T vec.Scalar](n, nrhs int, r, qtb []T, resid float64, rows int64) []byte {
	f := &Frame{Kind: KindAgg, Prec: vec.Prec[T]().Tag()[0], Rows: uint32(n), Cols: uint32(nrhs)}
	return packFrame(f, aggLen[T](n, nrhs), func(dst []byte) {
		off := PackTriangle(dst, r, n, n)
		off += PackScalars(dst[off:], qtb[:n*nrhs])
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(resid))
		binary.LittleEndian.PutUint64(dst[off+8:], uint64(rows))
	})
}

// unpackAgg decodes an aggregate frame over n columns and nrhs right-hand
// sides into r (upper triangle, row stride n) and qtb (row stride nrhs) and
// returns its residual norm and row count. A frame of another precision or
// shape, a payload of any other length, or a negative row count is an
// error, reported before anything is written.
func unpackAgg[T vec.Scalar](f *Frame, n, nrhs int, r, qtb []T) (float64, int64, error) {
	p := f.Payload
	if f.Prec != vec.Prec[T]().Tag()[0] || int(f.Rows) != n || int(f.Cols) != nrhs || len(p) != aggLen[T](n, nrhs) {
		return 0, 0, fmt.Errorf("dist: aggregate frame %q %d×%d of %d bytes, want %q %d×%d of %d",
			f.Prec, f.Rows, f.Cols, len(p), vec.Prec[T]().Tag()[0], n, nrhs, aggLen[T](n, nrhs))
	}
	tail := p[len(p)-16:]
	rows := int64(binary.LittleEndian.Uint64(tail[8:]))
	if rows < 0 {
		return 0, 0, fmt.Errorf("dist: aggregate frame claims %d rows", rows)
	}
	// The length check is all that either decoder can fail on.
	_ = UnpackTriangle(r, n, n, p)
	_ = UnpackScalars(qtb[:n*nrhs], p[TriLen(n)*scalarBytes[T]():])
	return math.Float64frombits(binary.LittleEndian.Uint64(tail)), rows, nil
}
