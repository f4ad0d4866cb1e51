package main

import (
	"math"
	"math/bits"
	"sort"
)

// latHist is the benchmark's own latency histogram: log-linear buckets with
// 128 sub-buckets per power of two, so a bucket is at most 0.8% wide.
// Recording allocates nothing and the whole histogram is ~17 KiB, which
// keeps the harness out of the process's heap: a per-sample slice of a 20 s
// run would be tens of MiB of live data and would push the collector's
// target far above what the server alone would see.
type latHist struct {
	n   uint64
	sum int64
	max int64
	b   [latBuckets]uint32
}

const (
	latSubBits = 7
	latSub     = 1 << latSubBits
	// Values up to 2^41 ns (~36 min) keep their own bucket; anything larger
	// lands in the last one.
	latBuckets = (41 - latSubBits + 1) * latSub
)

func latBucket(v int64) int {
	if v < 2*latSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (latSubBits + 1)
	i := e<<latSubBits + int(v>>uint(e))
	return min(i, latBuckets-1)
}

// latBounds is the half-open value range of bucket i.
func latBounds(i int) (lo, hi float64) {
	if i < 2*latSub {
		return float64(i), float64(i + 1)
	}
	e := i>>latSubBits - 1
	m := int64(i - e<<latSubBits)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *latHist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.b[latBucket(v)]++
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
	for i, c := range o.b {
		h.b[i] += c
	}
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile interpolates linearly inside the bucket that holds rank q·n and
// clamps to the largest observation.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := latBounds(i)
			v := lo + (rank-seen)/float64(c)*(hi-lo)
			return math.Min(v, float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// median of a copy of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastMean is the mean of the smallest tenth of xs (at least one value): for
// a short duration measured many times on a shared host, where every
// disturbance adds time and none takes any away, the value that repeats.
// Over ten runs of a hundred statesync set-ups (1 to 7 ms each, within one
// run) the median of a run spread 23 % from run to run, the fastest quarter
// 17 %, the fastest tenth 14 %, the single fastest 20 %.
func fastMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:max(len(s)/10, 1)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the driver's measure of how well
// values repeat); 0 when there are fewer than two values or the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

// tailPercentile picks the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it, so the reported tail is never one or two
// outliers. It returns 0 when even p90 has fewer (n < 100).
func tailPercentile(n uint64) float64 {
	for _, permille := range []uint64{999, 990, 900} {
		if n*(1000-permille)/1000 >= 10 {
			return float64(permille) / 10
		}
	}
	return 0
}
