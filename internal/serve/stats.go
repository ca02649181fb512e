package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the latency histograms: quarter-power-
// of-two buckets from 1µs upward cover about 1µs..4000s with ≤19% upper-
// edge error, plenty for p50/p95/p99 reporting.
const histBuckets = 128

// Histogram is a lock-free log-bucketed latency histogram. The zero value
// is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sumNS  atomic.Uint64
}

// bucketOf maps a duration to its bucket: floor(4·log₂(µs)), clamped.
func bucketOf(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	b := int(4 * math.Log2(us))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper is the inclusive upper edge of bucket b.
func bucketUpper(b int) time.Duration {
	us := math.Exp2(float64(b+1) / 4)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	if d > 0 {
		h.sumNS.Add(uint64(d))
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean observed latency (0 with no samples).
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// observed latencies: the upper edge of the bucket where the cumulative
// count crosses q·total. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= rank {
			return bucketUpper(b)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// serverStats aggregates the counters and per-endpoint histograms behind
// /statsz.
type serverStats struct {
	requests       atomic.Uint64 // requests admitted to a compute endpoint
	failed         atomic.Uint64 // 5xx and 4xx responses on compute endpoints
	throttled      atomic.Uint64 // 429 responses
	factorizations atomic.Uint64 // DAG-building factorizations executed
	coalesced      atomic.Uint64 // solve requests that shared a factorization
	batches        atomic.Uint64 // coalesced batches submitted

	factor      endpoint
	solve       endpoint
	streamRows  endpoint
	streamSolve endpoint
}

// endpoint holds one endpoint's histograms: the latency of whole requests
// and, where requests carry a matrix body, the part of it spent reading and
// parsing that body — the server-side answer to "where did the time go".
type endpoint struct {
	latency Histogram
	decode  Histogram
}

// endpointStats is the wire form of one endpoint's latency figures. Decode
// is present once the endpoint has decoded a body.
type endpointStats struct {
	Count  uint64         `json:"count"`
	MeanMS float64        `json:"mean_ms"`
	P50MS  float64        `json:"p50_ms"`
	P95MS  float64        `json:"p95_ms"`
	P99MS  float64        `json:"p99_ms"`
	Decode *endpointStats `json:"decode,omitempty"`
}

func (e *endpoint) wire() endpointStats {
	out := e.latency.wire()
	if e.decode.Count() > 0 {
		d := e.decode.wire()
		out.Decode = &d
	}
	return out
}

func (h *Histogram) wire() endpointStats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return endpointStats{
		Count:  h.Count(),
		MeanMS: ms(h.Mean()),
		P50MS:  ms(h.Quantile(0.50)),
		P95MS:  ms(h.Quantile(0.95)),
		P99MS:  ms(h.Quantile(0.99)),
	}
}
