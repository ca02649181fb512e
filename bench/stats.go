package main

import (
	"math"
	"sort"
	"time"
)

// segments is the number of equal slices the timed window is cut into. The
// host this runs on is shared, and its neighbours slow it down by a tenth to
// a third for seconds to minutes at a time; they never speed it up. A figure
// pooled over the window (or the median segment) therefore reads how much of
// the window was disturbed. The end-to-end rates and latencies are read off
// the window's least disturbed segments instead: see undisturbedRate and
// undisturbedLatency.
const segments = 20

// undisturbedRate is the rate of the third fastest of the twenty segments
// (their 90th percentile): what the program sustains while the host leaves
// it alone, with the two luckiest segments set aside.
func undisturbedRate(perSegment []float64) float64 {
	p, _ := percentile(perSegment, 0.90)
	return p
}

// undisturbedLatency is the second lowest of the segments' latency
// estimates (their 10th percentile), the mirror image of undisturbedRate.
func undisturbedLatency(perSegment []float64) float64 {
	p, _ := percentile(perSegment, 0.10)
	return p
}

// sample is one completed operation, timed from the start of the window.
type sample struct {
	start, end time.Duration
	rows       int     // matrix rows accepted
	flops      float64 // flops a one-shot QR of that input costs (the model count, not a measurement)
}

func (s sample) latency() time.Duration { return s.end - s.start }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile (0 < q < 1) of v by nearest rank. ok is
// false when fewer than ten samples lie beyond it: a tail read off fewer is
// the position of a few outliers, not a property of the system.
func percentile(v []float64, q float64) (p float64, ok bool) {
	if len(v) == 0 {
		return 0, false
	}
	s := sorted(v)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= 10
}

// relSpread is the distance between the first and third quartile as a share
// of the median — the run-to-run noise figure the bounds are sized against.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	quart := func(p float64) float64 { // exclusive method, as Python's statistics.quantiles
		h := p*float64(len(s)+1) - 1
		h = min(max(h, 0), float64(len(s)-1))
		lo := int(math.Floor(h))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quart(0.75) - quart(0.25)) / math.Abs(m)
}

// ratio is a/b, and 0 where b is 0: a share of nothing is reported as none,
// because the result line is JSON and cannot carry NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	return out
}

// segmentRates cuts [0, window) into equal segments and returns, per
// segment, the operations, rows and model flops completed per second. An operation
// counts in each segment by the share of its duration spent there, so a
// segment holding a dozen long operations is not quantized to whole ones.
func segmentRates(samples []sample, window time.Duration) (ops, rows, flops []float64) {
	ops = make([]float64, segments)
	rows = make([]float64, segments)
	flops = make([]float64, segments)
	seg := window / segments
	for _, s := range samples {
		d := float64(s.end - s.start)
		if d <= 0 {
			continue
		}
		for i := max(int(s.start/seg), 0); i < segments && time.Duration(i)*seg < s.end; i++ {
			lo, hi := max(s.start, time.Duration(i)*seg), min(s.end, time.Duration(i+1)*seg)
			share := float64(hi-lo) / d
			ops[i] += share
			rows[i] += share * float64(s.rows)
			flops[i] += share * s.flops
		}
	}
	for i := range ops {
		ops[i] /= seg.Seconds()
		rows[i] /= seg.Seconds()
		flops[i] /= seg.Seconds()
	}
	return ops, rows, flops
}
