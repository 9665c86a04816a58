package curve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"merlin/internal/rc"
)

func sol(load, req, area float64) Solution { return Solution{Load: load, Req: req, Area: area} }

func TestDominates(t *testing.T) {
	a := sol(1, 10, 5)
	cases := []struct {
		b    Solution
		want bool
	}{
		{sol(1, 10, 5), true},   // equal dominates (Definition 6 uses ≤/≥)
		{sol(2, 9, 6), true},    // worse everywhere
		{sol(0.5, 9, 6), false}, // better load
		{sol(2, 11, 6), false},  // better req
		{sol(2, 9, 4), false},   // better area
	}
	for i, c := range cases {
		if got := a.Dominates(c.b); got != c.want {
			t.Errorf("case %d: Dominates = %v, want %v", i, got, c.want)
		}
	}
}

// randomCurve builds a curve with deliberately many mutual dominations.
func randomCurve(rng *rand.Rand, n int) *Curve {
	c := &Curve{}
	for i := 0; i < n; i++ {
		c.Add(sol(
			float64(rng.Intn(8))/10,
			float64(rng.Intn(8)),
			float64(rng.Intn(8)*100),
		))
	}
	return c
}

func sameFrontier(a, b *Curve) bool {
	if len(a.Sols) != len(b.Sols) {
		return false
	}
	for i := range a.Sols {
		x, y := a.Sols[i], b.Sols[i]
		if x.Load != y.Load || x.Req != y.Req || x.Area != y.Area {
			return false
		}
	}
	return true
}

// TestPruneMatchesNaive cross-checks the staircase sweep against the O(s²)
// oracle — this is the Lemma 9 guarantee (pruning loses nothing).
func TestPruneMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		c := randomCurve(rng, 1+rng.Intn(30))
		fast := c.Clone()
		slow := c.Clone()
		fast.Prune()
		slow.PruneNaive()
		if !sameFrontier(fast, slow) {
			t.Fatalf("trial %d: fast %v != naive %v (input %v)", trial, fast.Sols, slow.Sols, c.Sols)
		}
	}
}

// TestInsertMatchesBatch: incremental Insert must yield the same frontier as
// batch Add+Prune.
func TestInsertMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(25)
		batch := &Curve{}
		inc := &Curve{}
		for i := 0; i < n; i++ {
			s := sol(float64(rng.Intn(6))/10, float64(rng.Intn(6)), float64(rng.Intn(6)*100))
			batch.Add(s)
			inc.Insert(s)
		}
		batch.Prune()
		// Same frontier as sets (order may differ).
		if len(batch.Sols) != len(inc.Sols) {
			t.Fatalf("trial %d: incremental %d sols vs batch %d", trial, len(inc.Sols), len(batch.Sols))
		}
		inc2 := inc.Clone()
		inc2.Prune()
		if !sameFrontier(inc2, batch) {
			t.Fatalf("trial %d: frontiers differ: %v vs %v", trial, inc2.Sols, batch.Sols)
		}
	}
}

func TestInsertRejectsDominated(t *testing.T) {
	c := &Curve{}
	if !c.Insert(sol(1, 10, 5)) {
		t.Fatal("insert into empty must succeed")
	}
	if c.Insert(sol(1, 10, 5)) {
		t.Fatal("duplicate must be rejected")
	}
	if c.Insert(sol(2, 9, 6)) {
		t.Fatal("dominated must be rejected")
	}
	if !c.Insert(sol(0.5, 11, 4)) {
		t.Fatal("dominating must be accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("dominating insert must evict: len=%d", c.Len())
	}
}

func TestPruneKeepsNonInferior(t *testing.T) {
	c := &Curve{}
	// Three mutually non-inferior points along the trade-off.
	c.Add(sol(0.1, 5, 1000))
	c.Add(sol(0.2, 7, 2000))
	c.Add(sol(0.3, 9, 3000))
	c.Prune()
	if c.Len() != 3 {
		t.Fatalf("non-inferior solutions were pruned: %v", c.Sols)
	}
}

func TestCap(t *testing.T) {
	c := &Curve{}
	for i := 0; i < 20; i++ {
		c.Add(sol(float64(i)/10, float64(i), float64(2000-i*100)))
	}
	c.Prune()
	best, _ := c.BestReq()
	c.Cap(5)
	if c.Len() > 5 {
		t.Fatalf("Cap left %d sols", c.Len())
	}
	after, _ := c.BestReq()
	if after.Req != best.Req {
		t.Fatalf("Cap dropped the best-req solution: %v -> %v", best, after)
	}
	// Cap with zero or large max is the identity.
	n := c.Len()
	c.Cap(0)
	c.Cap(100)
	if c.Len() != n {
		t.Fatal("no-op Cap changed the curve")
	}
}

// TestCapOne is the regression test for Cap(1) on two or more solutions,
// which used to panic with an index out of range: the even-spacing step
// (n−1)/(max−1) divided by zero. Cap(1) keeps the BestReq solution.
func TestCapOne(t *testing.T) {
	for n := 2; n <= 6; n++ {
		c := &Curve{}
		for i := 0; i < n; i++ {
			s := sol(float64(i)/10, float64((i*7)%n), float64(2000-i*100))
			s.Ref = int32(i + 1)
			c.Add(s)
		}
		best, _ := c.BestReq()
		c.Cap(1)
		if c.Len() != 1 || c.Sols[0] != best {
			t.Fatalf("n=%d: Cap(1) kept %v, want just %v", n, c.Sols, best)
		}
	}
}

// capReference is the allocating form of Cap for max ≥ 2: sort by descending
// req, then copy the evenly spaced picks into a new slice. The in-place Cap
// must keep exactly the same solutions in the same order.
func capReference(sols []Solution, max int) []Solution {
	if max <= 0 || len(sols) <= max {
		return sols
	}
	for i := 1; i < len(sols); i++ {
		s := sols[i]
		j := i - 1
		for j >= 0 && sols[j].Req < s.Req {
			sols[j+1] = sols[j]
			j--
		}
		sols[j+1] = s
	}
	kept := make([]Solution, 0, max)
	step := float64(len(sols)-1) / float64(max-1)
	prev := -1
	for i := 0; i < max; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx == prev {
			continue
		}
		prev = idx
		kept = append(kept, sols[idx])
	}
	return kept
}

func TestCapInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		// A pruned frontier in shuffled order, as the DP's inserts leave
		// it; few distinct req values, so ties exercise the stable sort.
		pool := &Curve{}
		for i := 0; i < 1+rng.Intn(80); i++ {
			pool.Add(sol(rng.Float64(), float64(rng.Intn(8)), rng.Float64()*1000))
		}
		pool.Prune()
		sols := pool.Sols
		rng.Shuffle(len(sols), func(i, j int) { sols[i], sols[j] = sols[j], sols[i] })
		for i := range sols {
			sols[i].Ref = int32(i + 1)
		}
		max := 2 + rng.Intn(10)
		want := capReference(append([]Solution(nil), sols...), max)
		c := &Curve{Sols: sols}
		c.Cap(max)
		if len(c.Sols) != len(want) {
			t.Fatalf("trial %d: Cap(%d) kept %d, reference %d", trial, max, len(c.Sols), len(want))
		}
		for i := range want {
			if c.Sols[i] != want[i] {
				t.Fatalf("trial %d: Cap(%d) pick %d = %v, reference %v", trial, max, i, c.Sols[i], want[i])
			}
		}
	}
}

func TestSelectors(t *testing.T) {
	c := &Curve{}
	if _, ok := c.BestReq(); ok {
		t.Fatal("BestReq on empty must report !ok")
	}
	c.Add(sol(0.1, 5, 3000))
	c.Add(sol(0.2, 8, 9000))
	c.Add(sol(0.3, 9, 20000))
	best, ok := c.BestReq()
	if !ok || best.Req != 9 {
		t.Fatalf("BestReq = %v", best)
	}
	ua, ok := c.BestReqUnderArea(10000)
	if !ok || ua.Req != 8 {
		t.Fatalf("BestReqUnderArea = %v", ua)
	}
	if _, ok := c.BestReqUnderArea(100); ok {
		t.Fatal("impossible budget must report !ok")
	}
	ma, ok := c.MinAreaMeetingReq(7)
	if !ok || ma.Area != 9000 {
		t.Fatalf("MinAreaMeetingReq = %v", ma)
	}
	if _, ok := c.MinAreaMeetingReq(100); ok {
		t.Fatal("impossible floor must report !ok")
	}
}

func TestWireOp(t *testing.T) {
	tech := rc.Technology{RPerLambda: 0.001, CPerLambda: 0.002}
	c := &Curve{}
	c.Add(sol(0.5, 10, 100))
	out := c.WireOp(tech, 1000, nil)
	if out.Len() != 1 {
		t.Fatal("WireOp must preserve count")
	}
	s := out.Sols[0]
	wantLoad := 0.5 + 2.0
	wantReq := 10 - 1.0*(1.0+0.5)
	if math.Abs(s.Load-wantLoad) > 1e-12 || math.Abs(s.Req-wantReq) > 1e-12 || s.Area != 100 {
		t.Fatalf("WireOp result %v", s)
	}
}

func TestBufferOp(t *testing.T) {
	tech := rc.Technology{RPerLambda: 1, CPerLambda: 1, NominalSlew: 0.2}
	g := rc.Gate{Name: "B", K0: 0.1, K1: 2, K2: 0.5, Cin: 0.03, Area: 500}
	c := &Curve{}
	c.Add(sol(0.5, 10, 100))
	out := c.BufferOp(tech, g, nil)
	s := out.Sols[0]
	wantReq := 10 - (0.1 + 2*0.5 + 0.5*0.2)
	if math.Abs(s.Load-0.03) > 1e-12 || math.Abs(s.Req-wantReq) > 1e-12 || s.Area != 600 {
		t.Fatalf("BufferOp result %v", s)
	}
}

func TestJoinOp(t *testing.T) {
	a, b := &Curve{}, &Curve{}
	a.Add(sol(0.1, 5, 100))
	a.Add(sol(0.2, 7, 200))
	b.Add(sol(0.3, 6, 400))
	out := JoinOp(a, b, nil)
	if out.Len() != 2 {
		t.Fatalf("JoinOp len = %d", out.Len())
	}
	s := out.Sols[0]
	if math.Abs(s.Load-0.4) > 1e-12 || s.Req != 5 || s.Area != 500 {
		t.Fatalf("JoinOp first = %v", s)
	}
	s = out.Sols[1]
	if math.Abs(s.Load-0.5) > 1e-12 || s.Req != 6 || s.Area != 600 {
		t.Fatalf("JoinOp second = %v", s)
	}
}

// TestPruneIdempotent via testing/quick: pruning twice equals pruning once.
func TestPruneIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCurve(rng, 1+rng.Intn(20))
		c.Prune()
		once := c.Clone()
		c.Prune()
		return sameFrontier(once, c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFrontierMutualNonDomination: after Prune, no solution dominates
// another (except identical copies, which are collapsed).
func TestFrontierMutualNonDomination(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCurve(rng, 1+rng.Intn(25))
		c.Prune()
		for i, a := range c.Sols {
			for j, b := range c.Sols {
				if i != j && a.Dominates(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := &Curve{}
	c.Add(sol(1, 2, 3))
	d := c.Clone()
	d.Sols[0].Req = 99
	if c.Sols[0].Req != 2 {
		t.Fatal("Clone must not share solution storage")
	}
}

func TestAddAllAndEmpty(t *testing.T) {
	c := &Curve{}
	if !c.Empty() {
		t.Fatal("zero curve must be empty")
	}
	d := &Curve{}
	d.Add(sol(1, 2, 3))
	c.AddAll(d)
	c.AddAll(nil)
	if c.Len() != 1 {
		t.Fatalf("AddAll len = %d", c.Len())
	}
}

// TestWireOpMonotone: longer wires can only increase load and decrease the
// required time (testing/quick over lengths and loads).
func TestWireOpMonotone(t *testing.T) {
	tech := rc.Default035()
	prop := func(l1, l2 uint16, loadCenti uint8) bool {
		a, b := int64(l1), int64(l2)
		if a > b {
			a, b = b, a
		}
		c := &Curve{}
		c.Add(sol(float64(loadCenti)/100+0.001, 5, 0))
		short := c.WireOp(tech, a, nil).Sols[0]
		long := c.WireOp(tech, b, nil).Sols[0]
		return long.Load >= short.Load && long.Req <= short.Req+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestBufferOpChargesExactly: area and load transform per the model.
func TestBufferOpChargesExactly(t *testing.T) {
	tech := rc.Default035()
	g := rc.Gate{Name: "B", K0: 0.1, K1: 2, K2: 0.1, Cin: 0.02, Area: 300}
	c := &Curve{}
	c.Add(sol(0.4, 7, 100))
	c.Add(sol(0.8, 9, 500))
	out := c.BufferOp(tech, g, nil)
	for i, s := range out.Sols {
		if s.Load != tech.QuantizeLoad(g.Cin) {
			t.Fatalf("sol %d: load %g", i, s.Load)
		}
		if s.Area != c.Sols[i].Area+300 {
			t.Fatalf("sol %d: area %g", i, s.Area)
		}
		if s.Req >= c.Sols[i].Req {
			t.Fatalf("sol %d: buffer must cost delay", i)
		}
	}
}

// TestInsertSolMatchesInsert: the fused single-scan variant agrees with the
// two-scan Insert on random streams.
func TestInsertSolMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 1000; trial++ {
		a, b := &Curve{}, &Curve{}
		for i := 0; i < 1+rng.Intn(20); i++ {
			s := sol(float64(rng.Intn(5))/10, float64(rng.Intn(5)), float64(rng.Intn(5)*100))
			ra := a.Insert(s)
			rb := b.InsertSol(s)
			if ra != rb {
				t.Fatalf("trial %d: Insert=%v InsertSol=%v for %v", trial, ra, rb, s)
			}
		}
		ap, bp := a.Clone(), b.Clone()
		ap.Prune()
		bp.Prune()
		if !sameFrontier(ap, bp) {
			t.Fatalf("trial %d: frontiers diverged", trial)
		}
	}
}
