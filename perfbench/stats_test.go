package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: percentile must sort a copy
	}
	return s
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // samples 91..100 lie beyond
		{99, 0.90, 0, false},  // only 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		s := seq(c.n)
		got, ok := percentile(s, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if c.n > 0 && s[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// Self time is a span's duration minus the union of its children's
// intervals: overlapping children count once, and child time outside the
// parent does not count.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: "root", start: 0, end: 100},
		{id: "a", parent: "root", start: 10, end: 40},
		{id: "b", parent: "root", start: 30, end: 60},  // overlaps a
		{id: "c", parent: "root", start: 90, end: 120}, // runs past the parent
		{id: "a1", parent: "a", start: 15, end: 20},
		{id: "a2", parent: "a", start: 15, end: 25},       // contains a1's interval
		{id: "lone", parent: "missing", start: 0, end: 7}, // orphan: its own duration
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 60, "a": 30 - 10, "b": 30, "c": 30, "a1": 5, "a2": 10, "lone": 7}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %d, want %d", id, got[id], w)
		}
	}
}

// peak_mem_mb is the median of the peaks of consecutive stretches.
// A stretched percentile is the median of the stretches' percentiles, and
// only reportable when every stretch has enough samples beyond its own.
func TestStretchPercentile(t *testing.T) {
	var s, at []float64
	// Three 1 s stretches of 100 samples each; the middle one is slow.
	for k := 0; k < 3; k++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if k == 1 {
				v *= 10
			}
			s = append(s, v)
			at = append(at, float64(k)+float64(i)/101)
		}
	}
	if got, ok := stretchPercentile(s, at, 0.9, 1, 3); !ok || got != 90 {
		t.Errorf("p90 over three stretches = %v, %v; want 90 (the slow stretch's 900 is one of three)", got, ok)
	}
	if got, ok := percentile(s, 0.9); !ok || got == 90 {
		t.Errorf("pooled p90 = %v, %v; the slow stretch should move it", got, ok)
	}
	if _, ok := stretchPercentile(s[:250], at[:250], 0.9, 1, 3); ok {
		t.Error("a stretch with 50 samples has only 5 beyond its p90, so the figure must not be reportable")
	}
}

func TestMedianPeak(t *testing.T) {
	per := int(time.Second / memSampleEvery) // samples per one-second stretch
	var s []float64
	for _, peak := range []float64{5, 9, 7, 100, 6} {
		for i := 0; i < per; i++ {
			s = append(s, float64(i%3)) // low between the peaks
		}
		s[len(s)-per/2] = peak
	}
	if got := medianPeak(s, time.Second); got != 7 {
		t.Errorf("median of the one-second peaks = %v, want 7", got)
	}
	if got := medianPeak(s, time.Minute); got != 100 {
		t.Errorf("samples shorter than one stretch: %v, want their peak 100", got)
	}
	if got := medianPeak(nil, time.Second); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}
