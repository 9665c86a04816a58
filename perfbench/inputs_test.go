package main

import (
	"reflect"
	"testing"
)

// The same seed gives the same nets, whatever order they are asked for in;
// another seed gives other nets.
func TestSameSeedSameNets(t *testing.T) {
	gens := map[string]func(int64, int) any{
		"cold": func(s int64, i int) any { return coldNet(s, i) },
		"hot":  func(s int64, i int) any { return hotNet(s, i) },
		"job":  func(s int64, i int) any { return jobNet(s, i) },
	}
	for name, gen := range gens {
		for i := 49; i >= 0; i-- {
			if a, b := gen(3, i), gen(3, i); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s net %d differs between two draws of seed 3", name, i)
			}
			if a, b := gen(3, i), gen(4, i); reflect.DeepEqual(a, b) {
				t.Fatalf("%s net %d is the same for seeds 3 and 4", name, i)
			}
		}
	}
	sinks := map[int]int{}
	for i := range coldCycle {
		n := coldNet(3, i)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		sinks[n.N()]++
	}
	for s := 4; s <= 5; s++ {
		if sinks[s] == 0 {
			t.Errorf("cold-solve's cycle has no %d-sink net", s)
		}
	}
}

// The same seed gives the same Zipf sequence and the same hot ranking, and
// the sequence is skewed toward the first ranks.
func TestSameSeedSameZipf(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(seed, hotSetSize, zipfS)
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b := draw(9), draw(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Zipf sequences of seed 9 differ")
	}
	if reflect.DeepEqual(a, draw(10)) {
		t.Fatal("Zipf sequences of seeds 9 and 10 are equal")
	}
	count := make([]int, hotSetSize)
	for _, r := range a {
		if r < 0 || r >= hotSetSize {
			t.Fatalf("rank %d out of range", r)
		}
		count[r]++
	}
	// P(rank 0) = 1/H(512) ≈ 0.147 and P(rank 1) is half of it.
	if f := float64(count[0]) / float64(len(a)); f < 0.13 || f > 0.165 {
		t.Errorf("rank 0 drawn %.3f of the time, want about 0.147", f)
	}
	if count[1]*3 > count[0]*2 {
		t.Errorf("rank 1 drawn %d times against rank 0's %d, want about half", count[1], count[0])
	}
	if !reflect.DeepEqual(hotRanking(9, hotSetSize), hotRanking(9, hotSetSize)) {
		t.Fatal("hot ranking of seed 9 differs between two draws")
	}
	seen := make([]bool, hotSetSize)
	for _, i := range hotRanking(9, hotSetSize) {
		if seen[i] {
			t.Fatalf("hot ranking repeats index %d", i)
		}
		seen[i] = true
	}
}
