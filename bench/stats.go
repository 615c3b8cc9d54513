//go:build linux

package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1))]
}

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// iqr returns the distance between the first and the third quartile of
// xs, computed as Python's statistics.quantiles(xs, n=4) computes them,
// which is what the driver uses; len(xs) must be at least 2.
func iqr(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	quartile := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
