package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
)

// Streams separate the random sequences drawn from one --seed, so that each
// workload's inputs are independent of the others and of consumption order.
const (
	streamCold uint64 = iota + 1
	streamHot
	streamHotRank
	streamZipf
	streamJobs
	streamResubmit
	streamVerify
)

// mix derives a generator seed from the run seed, a stream and an index
// (splitmix64 finalizer over their combination), so net i of a workload is
// the same however many clients consume the sequence and in what order.
func mix(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (i+1)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// genNet builds a Table 1-style random net: sinks placed uniformly in the
// box the technology's sizing rule gives, loads in [0.005, 0.060] pF and
// required times in [5, 7] ns, driven by the library's driver cell. The
// generator is the benchmark's own, so a change to the program's generators
// cannot change the benchmark's inputs.
func genNet(name string, sinks int, seed int64) *net.Net {
	p := flows.ProfileFor(sinks)
	side := net.BoxSideForTech(p.Tech, p.Lib.Driver)
	rng := rand.New(rand.NewSource(seed))
	n := &net.Net{Name: name, Driver: p.Lib.Driver}
	for i := 0; i < sinks; i++ {
		n.Sinks = append(n.Sinks, net.Sink{
			Pos:  geom.Point{X: rng.Int63n(side + 1), Y: rng.Int63n(side + 1)},
			Load: 0.005 + rng.Float64()*0.055,
			Req:  5 + rng.Float64()*2,
		})
	}
	return n
}

// coldCycle is the sink-count schedule of cold-solve: net i has
// coldCycle[i % 20] sinks, 13 of 4 and 7 of 5 sinks, interleaved, so every
// window of a run holds the same mix. The 5-sink nets take two thirds of
// the DP time. The shares put the median among the 4-sink nets (near their
// 77th percentile) and the 90th percentile among the 5-sink ones (near
// their 71st), where each class's latencies lie dense; a percentile on a
// class boundary, or between a class's one-loop and two-loop nets, moved
// by up to a fifth with the seed. Nets of 6 sinks are left out: each costs
// 200-1300 ms, with one to three loops to the fixpoint, so the 35 a window
// held moved throughput by about 0.07 of its median with the seed alone,
// and when the VM ran at half speed a window held too few solves for a
// p90. Nets of 7 and 8 sinks cost 2-5 s each.
var coldCycle = func() []int {
	weights := [2]int{13, 7} // of sinks 4, 5
	c := make([]int, weights[0]+weights[1])
	var credit [2]int
	for i := range c {
		// Smooth weighted round-robin: the class furthest behind its share
		// goes next.
		best := 0
		for k := range credit {
			credit[k] += weights[k]
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= len(c)
		c[i] = 4 + best
	}
	return c
}()

// coldNet is net i of cold-solve for seed.
func coldNet(seed int64, i int) *net.Net {
	sinks := coldCycle[i%len(coldCycle)]
	return genNet(fmt.Sprintf("cold-%d-%d", seed, i), sinks, mix(seed, streamCold, uint64(i)))
}

// hotSetSize is the number of distinct warm-route nets: about twice the
// service's default 256-entry result cache, so some reads fall through to
// the disk store.
const hotSetSize = 512

// zipfS is the skew of warm-route's popularity law (rank r is drawn with
// weight 1/r^s).
const zipfS = 1.0

// hotNet is net i of warm-route's hot set for seed.
func hotNet(seed int64, i int) *net.Net {
	return genNet(fmt.Sprintf("hot-%d-%d", seed, i), 4, mix(seed, streamHot, uint64(i)))
}

// jobNet is net i of durable-jobs for seed.
func jobNet(seed int64, i int) *net.Net {
	return genNet(fmt.Sprintf("job-%d-%d", seed, i), 4, mix(seed, streamJobs, uint64(i)))
}

// zipf draws ranks 0..n-1 with P(r) proportional to 1/(r+1)^s by inverting
// the cumulative weights. Unlike math/rand.Zipf it accepts s = 1.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(seed int64, n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &zipf{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next rank of the sequence.
func (z *zipf) next() int {
	u := z.rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// hotRanking maps popularity ranks to hot-set indices: a seeded shuffle, so
// which nets are hot varies with the seed but not with anything else.
func hotRanking(seed int64, n int) []int {
	return rand.New(rand.NewSource(mix(seed, streamHotRank, 0))).Perm(n)
}
