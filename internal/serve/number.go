package serve

import (
	"math"
	"math/bits"
	"strconv"
)

// Outcomes of scanNumber.
const (
	numOK     = iota
	numSyntax // not an RFC 8259 number
	numRange  // a number, but beyond float64 (encoding/json rejects it too)
)

// exactDigit is the number of decimal digits a uint64 always holds.
const exactDigit = 19

// pow10 holds the powers of ten a uint64 can: 10⁰ … 10¹⁹.
var pow10 = [exactDigit + 1]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// scanNumber validates one RFC 8259 number
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// starting at b[i] and converts it while it validates: the digits are
// accumulated into a mantissa and a decimal exponent on the way past, so
// the common case (at most 19 significant digits, |exponent| ≤ 19 — every
// shortest-representation double of ordinary magnitude) never walks them
// twice. It returns the value, the index just past the number and one of
// the num* outcomes. The value is bit-identical to what strconv.ParseFloat
// returns for the same text, which the number table test pins.
func scanNumber(b []byte, i int) (float64, int, int) {
	// Signs, leading zeros and rounding directions are coin flips to a
	// branch predictor, so those choices are computed, not branched on.
	start := i
	var sign uint64
	if i < len(b) && b[i] == '-' {
		sign = 1
	}
	i += int(sign)
	var w uint64 // mantissa: all digits, decimal point removed
	digits := i  // first digit; leading zeros counted until told apart below
	for i < len(b) && b[i]-'0' < 10 {
		w = w*10 + uint64(b[i]-'0')
		i++
	}
	nd := i - digits
	if nd == 0 || nd > 1 && b[digits] == '0' {
		return 0, digits + min(nd, 1), numSyntax // no digit, or one after a leading zero
	}
	e10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for i < len(b) && b[i]-'0' < 10 {
			w = w*10 + uint64(b[i]-'0')
			i++
		}
		if i == frac {
			return 0, i, numSyntax
		}
		nd += i - frac
		e10 = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		first := i
		e := 0
		for i < len(b) && b[i]-'0' < 10 {
			if e < 1<<20 { // far beyond float64 either way; stop before overflow
				e = e*10 + int(b[i]-'0')
			}
			i++
		}
		if i == first {
			return 0, i, numSyntax
		}
		if eneg {
			e = -e
		}
		e10 += e
	}
	if nd > exactDigit {
		// Leading zeros ("0.000123") added nothing to w and do not count.
		for p := digits; nd > 0 && (b[p] == '0' || b[p] == '.'); p++ {
			if b[p] == '0' {
				nd--
			}
		}
	}
	if nd <= exactDigit && -exactDigit <= e10 && e10 <= exactDigit {
		return math.Float64frombits(exactFloat(w, e10) | sign<<63), i, numOK
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, i, numRange
	}
	return f, i, numOK
}

// exactFloat returns the bits of the double nearest w·10^e10 (ties to even) for
// |e10| ≤ 19, exactly: the product or quotient is formed in integer
// arithmetic wider than the result and rounded once. A quotient's
// remainder only has to be known to be zero or not (the sticky bit), so one
// 128-by-64-bit division of the normalised operands suffices. The results
// lie in [1e-19, 2⁶⁴·1e19), so no subnormal or overflow case exists.
func exactFloat(w uint64, e10 int) uint64 {
	if w == 0 {
		return 0
	}
	var (
		m    uint64 // the 64 leading bits of the exact value, top bit set
		rest uint64 // nonzero if anything nonzero lies below them
		exp2 int    // the value is (m + fraction)·2^exp2
	)
	if e10 < 0 {
		d := pow10[-e10]
		lw, ld := bits.LeadingZeros64(w), bits.LeadingZeros64(d)
		wn, dn := w<<lw, d<<ld
		// wn/dn lies in (½, 2), so wn·2⁶³/dn has 63 or 64 bits.
		q, r := bits.Div64(wn>>1, wn<<63, dn)
		s := bits.LeadingZeros64(q)
		m, rest, exp2 = q<<s, r, ld-lw-63-s
	} else {
		hi, lo := bits.Mul64(w, pow10[e10])
		if hi == 0 {
			s := bits.LeadingZeros64(lo)
			m, exp2 = lo<<s, -s
		} else {
			s := bits.LeadingZeros64(hi)
			m, rest, exp2 = hi<<s|lo>>(64-s), lo<<s, 64-s
		}
	}
	// Round to 53 bits, ties to even: up when the bit below is set and
	// either something lies below that or the result would be odd.
	mant := m >> 11
	rest |= m & (1<<10 - 1)
	mant += m >> 10 & 1 & ((rest|-rest)>>63 | mant)
	// A carry into bit 53 lands in the exponent, as it should.
	return uint64(exp2+11+52+1022)<<52 + mant
}
