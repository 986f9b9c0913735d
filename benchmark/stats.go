package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: 128 linear buckets per power of
// two, so a recorded value is known to within 1/128 (< 0.8 %). The log₂
// buckets of obs.Hist can only answer 65.535 µs or 131.071 µs for a
// 70 µs median, which cannot resolve a bound of a tenth.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values are clamped below 2^40 ns (18 minutes), far beyond any reply.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [128, 256)
	return (e+1)<<histSubBits + int(v>>uint(e)) - histSub
}

// histMid returns the middle of bucket i's value range.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := uint(i>>histSubBits - 1)
	low := uint64(i&(histSub-1)+histSub) << e
	return float64(low) + float64(uint64(1)<<e)/2
}

func (h *hist) record(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q·n), 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method) — the same
// rule the benchmark's acceptance spread is computed with.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile distance as a share of the median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// rng is xorshift64*, seeded through splitmix64 so that neighbouring seeds
// give unrelated streams.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// below returns a value in [0, n) by multiply-shift (bias < n/2^64).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}
