package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// scalarRoundTrip packs and unpacks a value set with awkward members
// (negatives, denormals, huge magnitudes, signed zero) and requires exact
// bit round-trips — the wire must never launder a scalar through a lossy
// representation.
func scalarRoundTrip[T vec.Scalar](t *testing.T) {
	t.Helper()
	parts := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -3.75,
		1e-38, -1e-38, 3e38, -3e38, 1.2345678901234e-7}
	src := make([]T, 0, len(parts)*len(parts)/4+len(parts))
	for i, re := range parts {
		src = append(src, vec.FromParts[T](re, parts[len(parts)-1-i]))
	}
	buf := make([]byte, len(src)*scalarBytes[T]())
	if n := PackScalars(buf, src); n != len(buf) {
		t.Fatalf("PackScalars wrote %d bytes, want %d", n, len(buf))
	}
	dst := make([]T, len(src))
	if err := UnpackScalars(dst, buf); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if vec.RealPart(dst[i]) != vec.RealPart(src[i]) || vec.ImagPart(dst[i]) != vec.ImagPart(src[i]) {
			t.Errorf("scalar %d: %v -> %v", i, src[i], dst[i])
		}
	}
	// Short payloads are rejected, not half-applied.
	if err := UnpackScalars(dst, buf[:len(buf)-1]); err == nil {
		t.Error("UnpackScalars accepted a truncated payload")
	}
}

func TestScalarRoundTrip(t *testing.T) {
	t.Run("double", scalarRoundTrip[float64])
	t.Run("single", scalarRoundTrip[float32])
	t.Run("double-complex", scalarRoundTrip[complex128])
	t.Run("single-complex", scalarRoundTrip[complex64])
}

// TestComplexInterleaving pins the wire layout of complex scalars:
// little-endian (re, im) pairs, so the format is stable across builds,
// not just self-consistent.
func TestComplexInterleaving(t *testing.T) {
	buf := make([]byte, 16)
	PackScalars(buf, []complex128{complex(1.5, -2.5)})
	if re := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])); re != 1.5 {
		t.Errorf("real part encoded as %g, want 1.5", re)
	}
	if im := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])); im != -2.5 {
		t.Errorf("imag part encoded as %g, want -2.5", im)
	}
}

// triangleRoundTrip packs the upper triangle of a random matrix and
// unpacks it into a poisoned destination: the triangle must match
// exactly and the strictly lower part must be untouched.
func triangleRoundTrip[T vec.Scalar](t *testing.T) {
	t.Helper()
	const n = 17
	src := tile.RandDense[T](n, n, 99)
	buf := make([]byte, TriLen(n)*scalarBytes[T]())
	if w := PackTriangle(buf, src.Data, src.Stride, n); w != len(buf) {
		t.Fatalf("PackTriangle wrote %d bytes, want %d", w, len(buf))
	}
	poison := vec.FromParts[T](-12345, 54321)
	dst := tile.NewDense[T](n, n)
	for i := range dst.Data {
		dst.Data[i] = poison
	}
	if err := UnpackTriangle(dst.Data, dst.Stride, n, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got, want := dst.At(i, j), src.At(i, j)
			if j < i {
				want = poison
			}
			if got != want {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got, want)
			}
		}
	}
	if err := UnpackTriangle(dst.Data, dst.Stride, n, buf[:len(buf)-2]); err == nil {
		t.Error("UnpackTriangle accepted a truncated payload")
	}
}

func TestTriangleRoundTrip(t *testing.T) {
	t.Run("double", triangleRoundTrip[float64])
	t.Run("single", triangleRoundTrip[float32])
	t.Run("double-complex", triangleRoundTrip[complex128])
	t.Run("single-complex", triangleRoundTrip[complex64])
}

// aggRoundTrip frames an aggregate, reads it back through ReadFrame and
// decodes it into a poisoned destination: the triangle, Qᵀb, residual and
// row count must come back exactly, R's strictly lower part untouched; a
// payload one byte short or long, another shape or another precision must
// be refused.
func aggRoundTrip[T vec.Scalar](t *testing.T) {
	const n, nrhs = 9, 2
	src, qtb := tile.RandDense[T](n, n, 3), tile.RandDense[T](n, nrhs, 4)
	buf := packAgg(n, nrhs, src.Data, qtb.Data, 12.5, 1<<40)
	f, _, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil || f.Kind != KindAgg || f.Seq != 0 {
		t.Fatalf("read back kind %d seq %d: %v", f.Kind, f.Seq, err)
	}
	poison := vec.FromParts[T](-12345, 54321)
	r, q := tile.NewDense[T](n, n), tile.NewDense[T](n, nrhs)
	for i := range r.Data {
		r.Data[i] = poison
	}
	resid, rows, err := unpackAgg(&f, n, nrhs, r.Data, q.Data)
	if err != nil || resid != 12.5 || rows != 1<<40 || tile.MaxAbsDiff(q, qtb) != 0 {
		t.Fatalf("aggregate round trip: residual %g, rows %d, Qᵀb off by %g, err %v", resid, rows, tile.MaxAbsDiff(q, qtb), err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if want := src.At(i, j); j < i && r.At(i, j) != poison || j >= i && r.At(i, j) != want {
				t.Fatalf("R (%d,%d): got %v", i, j, r.At(i, j))
			}
		}
	}
	p := f.Payload
	for name, g := range map[string]Frame{
		"short":     {Kind: KindAgg, Prec: f.Prec, Rows: n, Cols: nrhs, Payload: p[:len(p)-1]},
		"long":      {Kind: KindAgg, Prec: f.Prec, Rows: n, Cols: nrhs, Payload: append(p[:len(p):len(p)], 0)},
		"shape":     {Kind: KindAgg, Prec: f.Prec, Rows: n, Cols: nrhs + 1, Payload: p},
		"precision": {Kind: KindAgg, Prec: '?', Rows: n, Cols: nrhs, Payload: p},
	} {
		if _, _, err := unpackAgg(&g, n, nrhs, r.Data, q.Data); err == nil {
			t.Errorf("%s aggregate frame accepted", name)
		}
	}
}

func TestAggRoundTrip(t *testing.T) {
	t.Run("double", aggRoundTrip[float64])
	t.Run("single", aggRoundTrip[float32])
	t.Run("double-complex", aggRoundTrip[complex128])
	t.Run("single-complex", aggRoundTrip[complex64])
}

// TestFrameRoundTrip writes frames of every kind through the codec and
// reads them back, reusing one payload buffer the way the hubs do.
func TestFrameRoundTrip(t *testing.T) {
	var net bytes.Buffer
	frames := []Frame{
		{Kind: KindHello, Payload: []byte(`{"proto":1}`)},
		{Kind: KindAgg, Prec: 'd', Seq: 7, Rows: 4, Cols: 0, Payload: make([]byte, aggLen[float64](4, 0))},
		{Kind: KindAgg, Prec: 'z', Seq: 8, Rows: 4, Cols: 2, Payload: make([]byte, aggLen[complex128](4, 2))},
		{Kind: KindDone},
	}
	for i := range frames {
		if _, err := WriteFrame(&net, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i := range frames {
		f, b, err := ReadFrame(&net, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = b
		want := frames[i]
		if f.Kind != want.Kind || f.Prec != want.Prec || f.Seq != want.Seq ||
			f.Rows != want.Rows || f.Cols != want.Cols || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, f, want)
		}
	}
}

// TestFrameRejectsCorrupt drives the validation paths: bad magic, zero
// and out-of-range kinds, an oversized length field (rejected before any
// allocation), and truncation at several offsets.
func TestFrameRejectsCorrupt(t *testing.T) {
	valid := func() []byte {
		var b bytes.Buffer
		_, _ = WriteFrame(&b, &Frame{Kind: KindAgg, Prec: 'd', Seq: 1, Rows: 2, Cols: 1, Payload: make([]byte, aggLen[float64](2, 1))})
		return b.Bytes()
	}

	t.Run("bad-magic", func(t *testing.T) {
		raw := valid()
		raw[0] = 'X'
		if _, _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("zero-kind", func(t *testing.T) {
		raw := valid()
		raw[4] = 0
		if _, _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
			t.Error("kind 0 accepted")
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		raw := valid()
		raw[4] = kindMax + 1
		if _, _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
			t.Error("out-of-range kind accepted")
		}
	})
	t.Run("oversized-payload", func(t *testing.T) {
		raw := valid()
		binary.LittleEndian.PutUint32(raw[20:], MaxPayload+1)
		if _, _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
			t.Error("oversized payload length accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		raw := valid()
		for _, cut := range []int{1, HeaderLen - 1, HeaderLen, HeaderLen + 5, len(raw) - 1} {
			_, _, err := ReadFrame(bytes.NewReader(raw[:cut]), nil)
			if err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
			if cut >= HeaderLen && err != io.ErrUnexpectedEOF {
				t.Errorf("truncation at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})
}

// FuzzTileFrame feeds arbitrary bytes to the frame reader: it must reject
// or accept without panicking, and anything it accepts must survive a
// re-encode/re-decode round trip bit-for-bit — the no-corruption contract
// the reduction tree relies on. Accepted aggregate frames also go through
// their decoder, and accepted shard and RHS frames through the chunk
// reader (fuzzReadRows).
func FuzzTileFrame(f *testing.F) {
	// Seed corpus: one valid frame per traffic class, plus corruptions.
	seed := func(fr *Frame) []byte {
		var b bytes.Buffer
		_, _ = WriteFrame(&b, fr)
		return b.Bytes()
	}
	f.Add(packAgg(3, 1, []float64{1, 2, 3, 0, 4, 5, 0, 0, 6}, []float64{7, 8, 9}, 0.5, 40))
	f.Add(packAgg(2, 2, []complex128{1 + 2i, 3 - 4i, 0, 6}, []complex128{1 + 2i, 3 - 4i, -5i, 6}, 2, 7))
	f.Add(seed(&Frame{Kind: KindHello, Payload: []byte(`{"proto":1,"peer_addr":"127.0.0.1:1"}`)}))
	f.Add(seed(&Frame{Kind: KindErr, Payload: []byte(`{"rank":1,"error":"x"}`)}))
	short := seed(&Frame{Kind: KindShard, Prec: 's', Rows: 2, Cols: 2, Payload: make([]byte, 16)})
	f.Add(short[:len(short)-3]) // truncated payload
	bad := seed(&Frame{Kind: KindDone})
	bad[1] = '?' // corrupt magic
	f.Add(bad)
	f.Add(seed(&Frame{Kind: KindShard, Prec: 'd', Seq: 3, Rows: 2, Cols: fuzzCols, Payload: make([]byte, 2*fuzzCols*8)}))
	f.Add(seed(&Frame{Kind: KindRHS, Prec: 'd', Rows: fuzzRows + 1, Cols: fuzzCols, Payload: make([]byte, (fuzzRows+1)*fuzzCols*8)}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			return
		}
		var b bytes.Buffer
		if _, err := WriteFrame(&b, &fr); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		fr2, _, err := ReadFrame(&b, nil)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Prec != fr.Prec || fr2.Seq != fr.Seq ||
			fr2.Rows != fr.Rows || fr2.Cols != fr.Cols || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame changed across round trip: %+v vs %+v", fr, fr2)
		}
		// An accepted aggregate frame must also take the decoder without
		// panicking, whatever the geometry fields claim, and the decoder
		// must refuse a payload of any length but the one they imply.
		if fr.Kind == KindAgg && fr.Prec == 'd' {
			n, nrhs := int(fr.Rows), int(fr.Cols)
			if n <= 64 && nrhs <= 64 {
				_, _, err := unpackAgg(&fr, n, nrhs, make([]float64, n*n), make([]float64, n*nrhs))
				if err == nil && len(fr.Payload) != aggLen[float64](n, nrhs) {
					t.Fatalf("%d-byte payload decoded as a %d×%d aggregate", len(fr.Payload), n, nrhs)
				}
			}
		}
		if fr.Kind == KindShard || fr.Kind == KindRHS {
			fuzzReadRows(t, raw, &fr)
		}
	})
}

// The destination fuzzReadRows decodes shard and RHS frames into: room for
// fuzzRows rows of fuzzCols float64s.
const fuzzRows, fuzzCols = 4, 3

// fuzzReadRows decodes an accepted shard or RHS frame with readRows into a
// fuzzRows×fuzzCols float64 destination followed by a guard element. It
// must accept exactly the frames whose geometry fits — precision 'd',
// fuzzCols columns, 1 to fuzzRows rows, the payload those imply — and
// decode them bit for bit, refuse any other, and never write past the
// destination; a Seq other than the one expected is always refused.
func fuzzReadRows(t *testing.T, raw []byte, fr *Frame) {
	const guard = -7.25
	buf := make([]float64, fuzzRows*fuzzCols+1)
	buf[len(buf)-1] = guard
	dst := buf[:fuzzRows*fuzzCols]
	rows, err := readRows(bytes.NewReader(raw), fr.Kind, fr.Seq, dst, fuzzCols)
	fits := fr.Prec == 'd' && fr.Cols == fuzzCols && fr.Rows >= 1 && fr.Rows <= fuzzRows &&
		len(fr.Payload) == int(fr.Rows)*fuzzCols*8
	switch {
	case buf[len(buf)-1] != guard:
		t.Fatalf("readRows wrote past its %d-element destination", len(dst))
	case fits != (err == nil):
		t.Fatalf("%q %d×%d chunk of %d bytes: readRows err = %v", fr.Prec, fr.Rows, fr.Cols, len(fr.Payload), err)
	case err == nil && (rows != int(fr.Rows) || !bytes.Equal(byteView(dst[:rows*fuzzCols]), fr.Payload)):
		t.Fatalf("readRows decoded %d rows that differ from the frame's %d", rows, fr.Rows)
	}
	if _, err := readRows(bytes.NewReader(raw), fr.Kind, fr.Seq+1, dst, fuzzCols); err == nil {
		t.Fatalf("readRows accepted a chunk at row %d where row %d was due", fr.Seq, fr.Seq+1)
	}
}
