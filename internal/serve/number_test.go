package serve

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkNumber holds scanNumber to strconv.ParseFloat on one text: the same
// bits when ParseFloat accepts, numRange when it reports a range error.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	got, next, code := scanNumber([]byte(s), 0)
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		if code != numRange {
			t.Fatalf("%q: outcome %d, want numRange (ParseFloat: %v)", s, code, err)
		}
		return
	}
	if code != numOK || next != len(s) {
		t.Fatalf("%q: outcome %d after %d of %d bytes, want the whole number", s, code, next, len(s))
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %x (%v), ParseFloat gives %x (%v)", s,
			math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// TestNumberBoundaries pins the conversions that sit on a rounding or range
// edge, on both arithmetic paths (product, quotient) and the fallback.
func TestNumberBoundaries(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e5", "0e999", "-0e-999", "1", "-1", "10", "0.1", "0.5", "1e0", "1E0", "1e+0", "1e-0",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995", // 2⁵³, 2⁵³+1 (tie → even), …
		"9007199254740993.0", "900719925474099.3e1", "90071992547409930e-1", "9007199254740993e1",
		"18014398509481985", "18014398509481986", "18014398509481987", // ties around 2⁵⁴
		"4503599627370496.5", "4503599627370497.5", "4503599627370496.50", "4503599627370496.51", // halfway below 2⁵³
		"9223372036854775807", "9223372036854775808", "18446744073709551615", "9999999999999999999", // 19–20 digits
		"18446744073709551616", "99999999999999999999", "1234567890123456789012345678901234567890",
		"9999999999999999999e19", "9999999999999999999e-19", "1e19", "1e-19", "1e20", "1e-20", "1e22", "1e23",
		"0.000000000000000000012345", "0.0000000000000000001", "0.00000000000000000001", "100000000000000000000",
		"0.3", "0.30000000000000004", "2.2250738585072014e-308", "2.2250738585072011e-308", // the last is the PHP hang
		"5e-324", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "-1e999",
		"1e99999999999999999999", "1e-99999999999999999999", "123456789012345678e-5", "0.000001", "1e-7",
		"8.41e21", "7.3177701707893310e+15", "1.0000000000000002", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	} {
		checkNumber(t, s)
	}
}

// TestNumberSyntax pins the grammar: what RFC 8259 (and encoding/json)
// refuses is refused, and a number ends where the grammar says it does.
func TestNumberSyntax(t *testing.T) {
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1.e3", "e3", "1e", "1e+", "-.5", "--1", "NaN", "Infinity", "١", "01", "00.5", "-01"} {
		if _, _, code := scanNumber([]byte(s), 0); code != numSyntax {
			t.Errorf("%q: outcome %d, want numSyntax", s, code)
		}
	}
	// A valid prefix stops at the first byte the grammar cannot use; what
	// follows is the array scanner's business.
	for s, n := range map[string]int{"1,2": 1, "1.5]": 3, "-0 ": 2, "1e5x": 3, "1.2.3": 3, "1e5e5": 3, "0x10": 1, "0,": 1} {
		if _, next, code := scanNumber([]byte(s), 0); code != numOK || next != n {
			t.Errorf("%q: outcome %d, stopped at %d, want numOK at %d", s, code, next, n)
		}
	}
}

// TestNumberAgainstParseFloat holds the conversion to strconv.ParseFloat,
// bit for bit, on a million random strings of each class a client can send
// (a tenth of that under -short).
func TestNumberAgainstParseFloat(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n /= 10
	}
	digits := func(rng *rand.Rand, buf []byte, k int) []byte {
		buf = append(buf, byte('1'+rng.Intn(9)))
		for ; k > 1; k-- {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		return buf
	}
	classes := []struct {
		name string
		gen  func(rng *rand.Rand, buf []byte) []byte
	}{
		{"shortest repr of random bits", func(rng *rand.Rand, buf []byte) []byte {
			f := math.Float64frombits(rng.Uint64())
			for math.IsNaN(f) || math.IsInf(f, 0) {
				f = math.Float64frombits(rng.Uint64())
			}
			return strconv.AppendFloat(buf, f, "eg"[rng.Intn(2)], -1, 64)
		}},
		{"shortest repr of ordinary magnitudes", func(rng *rand.Rand, buf []byte) []byte {
			return strconv.AppendFloat(buf, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(13)-6)), 'f', -1, 64)
		}},
		{"float32 widened", func(rng *rand.Rand, buf []byte) []byte {
			return strconv.AppendFloat(buf, float64(float32(rng.NormFloat64())), 'f', -1, 64)
		}},
		{"random digits, point and exponent", func(rng *rand.Rand, buf []byte) []byte {
			if rng.Intn(2) == 0 {
				buf = append(buf, '-')
			}
			k := 1 + rng.Intn(21) // up to 21 digits: both sides of the uint64 edge
			buf = digits(rng, buf, k)
			if p := rng.Intn(k + 1); p < k { // a point inside, or leading "0."
				tail := append([]byte(nil), buf[len(buf)-(k-p):]...)
				buf = buf[:len(buf)-(k-p)]
				if p == 0 {
					buf = append(buf, '0')
				}
				buf = append(append(buf, '.'), tail...)
			}
			if rng.Intn(3) > 0 {
				buf = strconv.AppendInt(append(buf, 'e'), int64(rng.Intn(61)-30), 10)
			}
			return buf
		}},
		{"19 digits", func(rng *rand.Rand, buf []byte) []byte {
			buf = digits(rng, buf, 19)
			return strconv.AppendInt(append(buf, 'e'), int64(rng.Intn(41)-20), 10)
		}},
		{"halfway between neighbours", func(rng *rand.Rand, buf []byte) []byte {
			// An odd 54-bit integer v is the exact midpoint of two doubles,
			// and so are v/2 = 5v·10⁻¹ and v/4 = 25v·10⁻² (the quotient
			// path); the neighbours by ±1 must round away from the tie.
			v := 1<<53 | rng.Uint64()>>11 | 1
			k := rng.Intn(3)
			v = v*pow10[k]>>k + uint64(rng.Intn(3)) - 1
			buf = strconv.AppendUint(buf, v, 10)
			return strconv.AppendInt(append(buf, 'e'), int64(-k), 10)
		}},
	}
	for ci, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			var buf []byte
			for i := 0; i < n; i++ {
				buf = c.gen(rng, buf[:0])
				checkNumber(t, string(buf))
			}
		})
	}
}
