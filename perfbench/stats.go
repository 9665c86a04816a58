package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so a tail figure never rests on one
// or two outliers.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and whether it is reportable: at least minBeyond
// samples must lie beyond it. samples need not be sorted; it is not changed.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[k], true
}

// stretchPercentile splits samples by the time each was taken (at, in
// seconds from the window's start, one per sample) into the window's
// consecutive stretches of the given length, takes the q-quantile of each
// stretch by the percentile rule, and returns the median of those. It is
// reportable only when every stretch's quantile is. A stall of the machine
// in one stretch then moves one stretch's figure, not the run's.
func stretchPercentile(samples, at []float64, q, stretch, window float64) (float64, bool) {
	n := max(1, int(window/stretch))
	parts := make([][]float64, n)
	for i, v := range samples {
		k := min(n-1, max(0, int(at[i]/window*float64(n))))
		parts[k] = append(parts[k], v)
	}
	figures := make([]float64, n)
	for k, p := range parts {
		v, ok := percentile(p, q)
		if !ok {
			return 0, false
		}
		figures[k] = v
	}
	return median(figures), true
}

// median returns the middle of samples (the mean of the two middle values
// for an even count), or 0 for none. It needs no samples beyond it.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when den is 0 (no attempts means no waste).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one timed operation of a merged trace: the benchmark's own spans
// around its calls into the program, and the server's spans fetched by trace
// id, re-parented under the client span that caused them.
type span struct {
	id, parent string
	name       string
	start, end int64 // unix nanoseconds
	attrs      map[string]string
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its children cover. Overlapping children
// (concurrent work under one parent) count once, and child time outside the
// parent's interval does not count at all.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[string][]span, len(spans))
	for _, s := range spans {
		if s.parent != "" {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.id] = (s.end - s.start) - covered(s.start, s.end, children[s.id])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, lo), min(k.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// tailOrNone is the q-quantile of samples, 0 when there are none, and -1
// when there are too few beyond it to report one.
func tailOrNone(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, ok := percentile(samples, q)
	if !ok {
		return -1
	}
	return v
}

// medianPeak splits samples, taken every memSampleEvery, into consecutive
// stretches of about the given length (one stretch when they cover less)
// and returns the median of the stretches' peaks, or 0 for no samples.
func medianPeak(samples []float64, stretch time.Duration) float64 {
	n := max(1, len(samples)/int(stretch/memSampleEvery))
	peaks := make([]float64, 0, n)
	for i := 0; i < n && len(samples) > 0; i++ {
		peak := math.Inf(-1)
		for _, v := range samples[i*len(samples)/n : (i+1)*len(samples)/n] {
			peak = max(peak, v)
		}
		peaks = append(peaks, peak)
	}
	return median(peaks)
}
