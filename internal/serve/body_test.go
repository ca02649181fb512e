package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// requestKinds builds a fresh value of every request type readBody decodes.
var requestKinds = []struct {
	name  string
	fresh func() request
}{
	{"factor", func() request { return new(factorRequest) }},
	{"solve", func() request { return new(solveRequest) }},
	{"stream rows", func() request { return new(streamRowsRequest) }},
	{"stream create", func() request { return new(streamCreateRequest) }},
}

// diffRequests compares two decoded requests of one type field by field:
// small values deeply, matrices down to nil-ness and the bits of every value.
func diffRequests(want, got request) error {
	wf, gf := want.fields(), got.fields()
	for i, f := range wf {
		if f.mat == nil {
			if !reflect.DeepEqual(f.val, gf[i].val) {
				return fmt.Errorf("%s: encoding/json has %+v, the decoder %+v",
					f.key, reflect.ValueOf(f.val).Elem(), reflect.ValueOf(gf[i].val).Elem())
			}
			continue
		}
		w, g := *f.mat, *gf[i].mat
		if (w == nil) != (g == nil) {
			return fmt.Errorf("%s: encoding/json has nil=%v, the decoder nil=%v", f.key, w == nil, g == nil)
		}
		if w == nil {
			continue
		}
		if w.Rows != g.Rows || w.Cols != g.Cols || (w.Data == nil) != (g.Data == nil) || len(w.Data) != len(g.Data) {
			return fmt.Errorf("%s: encoding/json has %d×%d with %d values (nil=%v), the decoder %d×%d with %d (nil=%v)",
				f.key, w.Rows, w.Cols, len(w.Data), w.Data == nil, g.Rows, g.Cols, len(g.Data), g.Data == nil)
		}
		for k := range w.Data {
			if math.Float64bits(w.Data[k]) != math.Float64bits(g.Data[k]) {
				return fmt.Errorf("%s.data[%d]: encoding/json has %v, the decoder %v", f.key, k, w.Data[k], g.Data[k])
			}
		}
	}
	return nil
}

// diffBody holds decodeBody to json.Decoder + DisallowUnknownFields on one
// body, for every request type: the same verdict and, on accept, the same
// request — except that a null inside a data array, which encoding/json
// reads as "leave the element at zero", is refused.
func diffBody(t *testing.T, body []byte) {
	t.Helper()
	for _, kind := range requestKinds {
		want, got := kind.fresh(), kind.fresh()
		errStd := decodeStd(body, want)
		errNew := decodeBody(body, math.MaxInt, got.fields())
		switch {
		case errStd == nil && errors.Is(errNew, errNullElement):
		case (errStd == nil) != (errNew == nil):
			t.Fatalf("%s request %q:\n  encoding/json: %v\n  decodeBody:    %v", kind.name, body, errStd, errNew)
		case errStd == nil:
			if err := diffRequests(want, got); err != nil {
				t.Fatalf("%s request %q: %v", kind.name, body, err)
			}
		}
	}
}

// bodyCases are the request bodies whose handling is easy to get wrong, with
// the verdict a solve request must reach on each. They are the fuzz target's
// seeds as well.
var bodyCases = []struct {
	name, body string
	ok         bool
}{
	{"plain", `{"precision":"d","matrix":{"rows":2,"cols":1,"data":[1,2]},"rhs":{"rows":2,"cols":1,"data":[3,4]}}`, true},
	{"whitespace everywhere", " {\n\t\"matrix\" : { \"rows\" : 1 , \"cols\" : 2 , \"data\" : [ 1 ,\r\n 2 ] } } ", true},
	{"matrix before precision", `{"matrix":{"data":[0.5],"cols":1,"rows":1},"precision":"z"}`, true},
	{"case-folded keys", `{"MATRIX":{"Rows":1,"COLS":1,"Data":[1]},"Precision":"s","RHS":null}`, true},
	{"keys folding from beyond ASCII", `{"matrix":{"rowſ":1,"colſ":1},"optionſ":null}`, true},
	{"escaped keys", `{"\u006datrix":{"ro\u0077s":3,"d\u0061ta":[1]},"r\u0068s":null}`, true},
	{"escaped key naming nothing", `{"m\u0000atrix":null}`, false},
	{"duplicate keys merge", `{"matrix":{"rows":1,"data":[1,2,3]},"matrix":{"cols":2,"data":[4]}}`, true},
	{"duplicate then null", `{"matrix":{"rows":1},"matrix":null,"precision":"d","precision":null}`, true},
	{"duplicate data then empty", `{"matrix":{"data":[1,2],"data":[]}}`, true},
	{"duplicate data then null", `{"matrix":{"data":[1,2],"data":null}}`, true},
	{"options null", `{"options":null,"matrix":{"rows":1,"cols":1,"data":[1]}}`, true},
	{"options merge", `{"options":{"tile_size":4},"options":{"kernels":"ts","CHECK_HEALTH":true}}`, true},
	{"options with a brace in a string", `{"options":{"algorithm":"gr}e\"{dy"}}`, true},
	{"options unknown field", `{"options":{"tile":4}}`, false},
	{"options nested value", `{"options":{"tile_size":[4]}}`, false},
	{"options of the wrong type", `{"options":[]}`, false},
	{"options truncated", `{"options":{"tile_size":4`, false},
	{"options with trailing junk", `{"options":{"tile_size":4}x}`, false},
	{"precision of the wrong type", `{"precision":1}`, false},
	{"precision unterminated", `{"precision":"d`, false},
	{"precision with a raw control byte", "{\"precision\":\"d\n\"}", false},
	{"rows as 1.0", `{"matrix":{"rows":1.0}}`, false},
	{"rows as 1e0", `{"matrix":{"rows":1e0}}`, false},
	{"rows of 20 digits", `{"matrix":{"rows":12345678901234567890}}`, false},
	{"rows as a string", `{"matrix":{"rows":"1"}}`, false},
	{"rows null", `{"matrix":{"rows":null,"cols":2}}`, true},
	{"rows negative zero", `{"matrix":{"rows":-0}}`, true},
	{"rows then junk", `{"matrix":{"rows":12abc}}`, false},
	{"rows missing", `{"matrix":{"rows":,"cols":1}}`, false},
	{"leading zero", `{"matrix":{"data":[01]}}`, false},
	{"leading plus", `{"matrix":{"data":[+1]}}`, false},
	{"bare fraction", `{"matrix":{"data":[.5]}}`, false},
	{"bare point", `{"matrix":{"data":[1.]}}`, false},
	{"bare exponent", `{"matrix":{"data":[1e]}}`, false},
	{"hexadecimal", `{"matrix":{"data":[0x10]}}`, false},
	{"overflow", `{"matrix":{"data":[1e999]}}`, false},
	{"negative overflow", `{"matrix":{"data":[1,-1.8e308]}}`, false},
	{"underflow to zero", `{"matrix":{"data":[1e-400,-1e-400]}}`, true},
	{"every number shape", `{"matrix":{"data":[0,-0,1,-1,0.5,1E2,1e+2,1e-2,123456789012345678901234567890,5e-324,1.7976931348623157e308,0.1e1]}}`, true},
	{"shortest round-trip spellings", `{"matrix":{"rows":3,"cols":3,"data":[0,-0,1,-1.5,1e+21,1.25e-07,1.7976931348623157e+308,-5e-324,0.30000000000000004]}}`, true},
	{"null element", `{"matrix":{"data":[1,null]}}`, false},
	{"only a null element", `{"matrix":{"data":[null]}}`, false},
	{"string element", `{"matrix":{"data":[1,"2"]}}`, false},
	{"boolean element", `{"matrix":{"data":[true]}}`, false},
	{"nested element", `{"matrix":{"data":[[1]]}}`, false},
	{"string hiding a bracket", `{"matrix":{"data":["]",1]}}`, false},
	{"empty element", `{"matrix":{"data":[1,,2]}}`, false},
	{"only commas", `{"matrix":{"data":[,,,,,,,,]}}`, false},
	{"trailing comma in data", `{"matrix":{"data":[1,]}}`, false},
	{"trailing comma in matrix", `{"matrix":{"rows":1,}}`, false},
	{"trailing comma at the top", `{"matrix":null,}`, false},
	{"data unterminated", `{"matrix":{"data":[1,2`, false},
	{"data then junk", `{"matrix":{"data":[1 2]}}`, false},
	{"data of the wrong type", `{"matrix":{"data":{}}}`, false},
	{"data empty", `{"matrix":{"data":[]}}`, true},
	{"data null", `{"matrix":{"data":null}}`, true},
	{"matrix empty", `{"matrix":{}}`, true},
	{"matrix of the wrong type", `{"matrix":[1]}`, false},
	{"matrix as a number", `{"matrix":7}`, false},
	{"matrix nullish", `{"matrix":nullx}`, false},
	{"unknown field at the top", `{"matrix":null,"extra":1}`, false},
	{"unknown field in a matrix", `{"matrix":{"rows":1,"stride":1}}`, false},
	{"another request's field", `{"batch":null}`, false},
	{"missing colon", `{"matrix" null}`, false},
	{"missing comma", `{"matrix":null "rhs":null}`, false},
	{"unquoted key", `{matrix:null}`, false},
	{"trailing bytes", `{"matrix":null}  trailing garbage {{{`, true},
	{"second value", `{"matrix":null}{"matrix":{"rows":1}}`, true},
	{"empty object", `{}`, true},
	{"top-level null", `null`, true},
	{"top-level null, then anything", ` nullx`, true},
	{"top-level nul", `nul`, false},
	{"top-level array", `[]`, false},
	{"top-level number", `1`, false},
	{"top-level string", `"matrix"`, false},
	{"empty body", ``, false},
	{"only whitespace", " \n", false},
	{"byte-order mark", "\xef\xbb\xbf{}", false},
	{"unterminated object", `{"matrix":null`, false},
	{"nested 100 deep", `{"matrix":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`, false},
	{"nested 100 deep in data", `{"matrix":{"data":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}}`, false},
	{"nested 100 deep under an unknown key", `{"x":` + strings.Repeat(`{"x":`, 100) + `1` + strings.Repeat("}", 100) + `}`, false},
}

func TestDecodeBodyCases(t *testing.T) {
	for _, tc := range bodyCases {
		t.Run(tc.name, func(t *testing.T) {
			var req solveRequest
			err := decodeBody([]byte(tc.body), math.MaxInt, req.fields())
			if (err == nil) != tc.ok {
				t.Errorf("accepted=%v, want %v (error: %v)", err == nil, tc.ok, err)
			}
			diffBody(t, []byte(tc.body))
		})
	}
}

// FuzzRequestBody is the differential fuzz target of the request decoder:
// any input, read as each of the request types, must fare with decodeBody as
// it does with the encoding/json decoder readBody used to run (see diffBody).
func FuzzRequestBody(f *testing.F) {
	for _, tc := range bodyCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"batch":{"rows":2,"cols":2,"data":[1e0,2.5,-3,4]},"rhs":{"rows":2,"cols":1,"data":[0.1,0.2]}}`))
	f.Add([]byte(`{"precision":"c","cols":3,"window":8,"forget":0.99,"options":{"algorithm":"auto"}}`))
	f.Fuzz(func(t *testing.T, body []byte) { diffBody(t, body) })
}

// TestNullElementNamesOffset pins the first deliberate tightening: a null
// element is refused, with the offset it sits at.
func TestNullElementNamesOffset(t *testing.T) {
	body := `{"matrix":{"rows":1,"cols":2,"data":[1,null]}}`
	var req factorRequest
	err := decodeBody([]byte(body), math.MaxInt, req.fields())
	want := fmt.Sprintf("offset %d: ", strings.Index(body, "null"))
	if !errors.Is(err, errNullElement) || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want errNullElement at %q", err, want)
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/factor", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
		t.Fatalf("status %d, body %s; want 400 naming %q", resp.StatusCode, msg, want)
	}
}

// TestBodyTooLarge pins the second: a body over Config.MaxBodyBytes is 413
// whether its length is declared (refused unread) or only discovered
// (chunked), and a body at the limit is still read.
func TestBodyTooLarge(t *testing.T) {
	body := []byte(`{"matrix":{"rows":4,"cols":2,"data":[4,1,1,4,1,1,0.5,0.5]}}`)
	_, ts := newTestServer(t, Config{MaxBodyBytes: int64(len(body))})
	post := func(r io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/factor", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	padded := append(append([]byte(nil), body...), ' ')
	if code := post(bytes.NewReader(body)); code != http.StatusOK {
		t.Errorf("body at the limit: status %d, want 200", code)
	}
	if code := post(bytes.NewReader(padded)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared length over the limit: status %d, want 413", code)
	}
	// A reader of no known type makes the client send chunked, length unknown.
	if code := post(io.MultiReader(bytes.NewReader(padded))); code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the limit: status %d, want 413", code)
	}
}

// TestDataLimitPrecedesAllocation holds the decoder to its allocation bound:
// an array with more values than any matrix may have is refused from its
// comma count, before a slice for it exists.
func TestDataLimitPrecedesAllocation(t *testing.T) {
	body := []byte(`{"matrix":{"data":[` + strings.Repeat("0,", 1<<20) + `0]}}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req factorRequest
	err := decodeBody(body, 1<<10, req.fields())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("error %v, want the value limit", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing %d values allocated %d bytes", 1<<20+1, got)
	}
	// Under the limit the allocation is the values and little else.
	runtime.ReadMemStats(&before)
	err = decodeBody(body, math.MaxInt, req.fields())
	runtime.ReadMemStats(&after)
	if err != nil || len(req.Matrix.Data) != 1<<20+1 {
		t.Fatalf("error %v, %d values", err, len(req.Matrix.Data))
	}
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(8<<20); got > want+64<<10 {
		t.Errorf("decoding %d values allocated %d bytes, want about %d", 1<<20+1, got, want)
	}
}
