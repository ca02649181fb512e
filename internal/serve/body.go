package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// A request body is decoded in one pass over its bytes (see the package
// comment): readBody reads it whole, decodeBody walks the top-level object,
// a matrix field's "data" array goes through scanNumber, and everything
// small goes to encoding/json on its exact span. The walker knows only the
// two shapes the API has — an object of named fields, and a wire matrix —
// and treats any array or object where neither is expected as the type
// error encoding/json would report.

// field binds one key of an object to its destination, exactly one of: a
// wire matrix (mat) or an array of numbers (data), which the decoder parses
// itself, or a small value (val — a string, number, bool or flat struct, by
// pointer), which it hands to encoding/json.
type field struct {
	key  string
	mat  **Matrix
	data *[]float64
	val  any
}

// request is a body readBody can decode: every request type lists its keys.
type request interface{ fields() []field }

// errNullElement reports a null inside a "data" array, which encoding/json
// would silently leave at zero.
var errNullElement = errors.New("null is not a number")

// maxPooledBuffer bounds what the buffer pools keep: a buffer that grew past
// it (an unusually large body or reply) is left to the collector instead of
// being pinned at its high-water mark.
const maxPooledBuffer = 8 << 20

// bodyPool and replyPool recycle the raw bytes of request bodies and of
// encoded replies. Nothing parsed ever lives in these buffers: the decoder's
// number slices are fresh, request-owned allocations. The pools are separate
// because the sizes are: a megabyte body handed a reply's few kilobytes would
// allocate afresh and leave one more large buffer behind.
var bodyPool, replyPool = newBufferPool(), newBufferPool()

func newBufferPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(bytes.Buffer) }}
}

func putBuffer(pool *sync.Pool, b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		pool.Put(b)
	}
}

// readBody reads r's body into a pooled buffer and decodes it into req,
// recording the time both took in decode (nil for endpoints that keep no
// statistics). On failure it answers the request itself — 413 for a body
// beyond Config.MaxBodyBytes, declared or discovered, 400 for one it cannot
// decode — and returns false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, decode *Histogram, req request) bool {
	start := time.Now()
	if r.ContentLength > s.cfg.MaxBodyBytes {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body of %d bytes exceeds the limit of %d",
			r.ContentLength, s.cfg.MaxBodyBytes)
		return false
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBuffer(bodyPool, buf)
	// Content-Length sizes the buffer so a body is read without regrowth;
	// it is a claim, so it reserves no more than the pool would keep.
	buf.Grow(int(min(max(r.ContentLength, 0), maxPooledBuffer)) + bytes.MinRead)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, status, "reading request body: %v", err)
		return false
	}
	limit := math.MaxInt
	if s.cfg.MaxElements > 0 {
		limit = 2 * s.cfg.MaxElements // complex data interleaves two values per element
	}
	if err := decodeBody(buf.Bytes(), limit, req.fields()); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if decode != nil {
		decode.Observe(time.Since(start))
	}
	return true
}

// decodeBody decodes the first JSON value of buf into the destinations of
// fields, accepting exactly what json.Decoder with DisallowUnknownFields
// accepts for the corresponding struct — first value only, keys matched
// under case folding, a repeated key decoding into the same destination
// again, null leaving scalars alone and clearing pointers and slices —
// except that a null inside a data array is an error. No data array may
// hold more than maxData values; the check precedes the allocation.
func decodeBody(buf []byte, maxData int, fields []field) error {
	p := &parser{buf: buf, maxData: maxData}
	p.skipSpace()
	if p.null() {
		return nil
	}
	if p.peek() != '{' {
		return p.errorf("want a JSON object, have %s", p.have())
	}
	return p.object(fields)
}

// parser is a cursor over one request body.
type parser struct {
	buf     []byte
	pos     int
	maxData int
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{p.pos}, args...)...)
}

// peek returns the byte at the cursor, or 0 (never valid JSON) at the end.
func (p *parser) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

// have describes the byte at the cursor for an error message.
func (p *parser) have() string {
	if p.pos >= len(p.buf) {
		return "the end of the body"
	}
	return fmt.Sprintf("%q", p.buf[p.pos])
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func (p *parser) skipSpace() {
	for p.pos < len(p.buf) && isSpace(p.buf[p.pos]) {
		p.pos++
	}
}

// null consumes the literal null if the cursor is on it. Whether a
// delimiter follows is the caller's next check.
func (p *parser) null() bool {
	if bytes.HasPrefix(p.buf[p.pos:], []byte("null")) {
		p.pos += 4
		return true
	}
	return false
}

// stringEnd returns the index just past the string literal opening at b[i],
// or -1 if it never closes. Escapes are only stepped over; what they spell
// is encoding/json's to judge.
func stringEnd(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// object walks the object opening at the cursor, decoding each member into
// the destination its key names. A key that names none is an error.
func (p *parser) object(fields []field) error {
	p.pos++ // '{'
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return nil
	}
	for {
		f, err := p.key(fields)
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() != ':' {
			return p.errorf("want ':' after an object key, have %s", p.have())
		}
		p.pos++
		p.skipSpace()
		switch {
		case f.mat != nil:
			err = p.matrix(f.mat)
		case f.data != nil:
			err = p.data(f.data)
		default:
			err = p.small(f.val)
		}
		if err != nil {
			return err
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
			p.skipSpace()
		case '}':
			p.pos++
			return nil
		default:
			return p.errorf("want ',' or '}' after an object member, have %s", p.have())
		}
	}
}

// key consumes the object key at the cursor and returns the field it names.
// encoding/json unquotes a key and then matches it under Unicode case
// folding ("MATRIX", "matrix" and "rowſ" all name a field), so this
// does exactly that.
func (p *parser) key(fields []field) (field, error) {
	if p.peek() != '"' {
		return field{}, p.errorf("want an object key, have %s", p.have())
	}
	end := stringEnd(p.buf, p.pos)
	if end < 0 {
		return field{}, p.errorf("unterminated object key")
	}
	var name string
	if err := json.Unmarshal(p.buf[p.pos:end], &name); err != nil {
		return field{}, p.errorf("object key: %v", err)
	}
	for _, f := range fields {
		if strings.EqualFold(name, f.key) {
			p.pos = end
			return f, nil
		}
	}
	return field{}, p.errorf("unknown field %q", name)
}

// small hands the value at the cursor — a scalar, or an object of scalars —
// to encoding/json, which decodes it into dst under DisallowUnknownFields
// with the semantics the whole-body decoder had. Finding the span needs no
// grammar: it ends at the closing quote, the closing brace, or the next
// delimiter, and encoding/json must consume exactly that much or the value
// is malformed. Arrays and nested objects have no small destination.
func (p *parser) small(dst any) error {
	b, end := p.buf, -1
	switch p.peek() {
	case '"':
		end = stringEnd(b, p.pos)
	case '[':
		return p.errorf("unexpected array")
	case '{':
		for i := p.pos + 1; i < len(b) && end < 0; i++ {
			switch b[i] {
			case '"':
				if i = stringEnd(b, i) - 1; i < 0 {
					i = len(b)
				}
			case '{', '[':
				p.pos = i
				return p.errorf("unexpected nested value")
			case '}':
				end = i + 1
			}
		}
	default:
		for end = p.pos; end < len(b) && !isSpace(b[end]) && b[end] != ',' && b[end] != '}' && b[end] != ']'; end++ {
		}
		if end == p.pos {
			return p.errorf("want a value, have %s", p.have())
		}
	}
	if end < 0 {
		return p.errorf("unterminated value")
	}
	dec := json.NewDecoder(bytes.NewReader(p.buf[p.pos:end]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return p.errorf("%v", err)
	}
	if dec.InputOffset() != int64(end-p.pos) {
		return p.errorf("malformed value %q", p.buf[p.pos:end])
	}
	p.pos = end
	return nil
}

// matrix decodes the wire matrix at the cursor into *dst: null clears it,
// an object fills it in, allocating it unless an earlier member of the same
// name already did.
func (p *parser) matrix(dst **Matrix) error {
	if p.null() {
		*dst = nil
		return nil
	}
	if p.peek() != '{' {
		return p.errorf("want a matrix object, have %s", p.have())
	}
	if *dst == nil {
		*dst = new(Matrix)
	}
	m := *dst
	return p.object([]field{{key: "rows", val: &m.Rows}, {key: "cols", val: &m.Cols}, {key: "data", data: &m.Data}})
}

// data decodes the array of numbers at the cursor into a fresh slice sized
// before it is filled: a well-formed array of n numbers has n−1 commas
// before its closing bracket and is at least 2n−1 bytes long, so counting
// the commas gives the exact allocation, and a count the length cannot hold
// or the limit forbids is refused before anything is allocated.
func (p *parser) data(dst *[]float64) error {
	if p.null() {
		*dst = nil
		return nil
	}
	if p.peek() != '[' {
		return p.errorf("want an array of numbers, have %s", p.have())
	}
	p.pos++
	p.skipSpace()
	if p.peek() == ']' {
		p.pos++
		*dst = []float64{}
		return nil
	}
	b := p.buf
	span := bytes.IndexByte(b[p.pos:], ']')
	if span < 0 {
		p.pos = len(b)
		return p.errorf("unterminated array")
	}
	n := bytes.Count(b[p.pos:p.pos+span], []byte(",")) + 1
	if n > (span+1)/2 {
		return p.errorf("array with an empty element")
	}
	if n > p.maxData {
		return p.errorf("array of %d values exceeds the limit of %d", n, p.maxData)
	}
	out := make([]float64, n)
	i := p.pos
	for k := range out {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		f, next, code := scanNumber(b, i)
		switch p.pos = next; {
		case code == numRange:
			return p.errorf("number %s does not fit a float64", b[i:next])
		case code == numSyntax && bytes.HasPrefix(b[next:], []byte("null")):
			return p.errorf("%w", errNullElement)
		case code == numSyntax:
			return p.errorf("malformed number: have %s", p.have())
		}
		out[k] = f
		for i = next; i < len(b) && isSpace(b[i]); i++ {
		}
		// All n−1 commas lie before the bracket, so after the last element
		// only the bracket can follow.
		want := byte(',')
		if k == n-1 {
			want = ']'
		}
		if i >= len(b) || b[i] != want {
			p.pos = i
			return p.errorf("want %q after a number, have %s", want, p.have())
		}
		i++
	}
	p.pos = i
	*dst = out
	return nil
}
