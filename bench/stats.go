package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of a sorted sample by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile[T float64 | uint32](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// percentile sorts a copy of vs and returns its q-quantile.
func percentile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// quartiles returns the first quartile, median and third quartile of vs
// with the exclusive method — the values Python's
// statistics.quantiles(vs, n=4) gives, which is what the pipeline's A/A
// check computes its spreads from. Fewer than two values yield the value
// itself three times.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// Rank i*(n+1)/4, 1-based, clamped to 1..n-1; like Python, the
		// remainder is taken after clamping, so tiny samples extrapolate.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := i*(n+1) - j*4
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median,
// the noise figure the bounds in BENCHMARK.json are held against.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortNs(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// clampNs stores a duration in nanoseconds in 32 bits; anything past 4.29 s
// saturates, which no percentile reported here can reach.
func clampNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}
