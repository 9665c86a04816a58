// Package curve implements the three-dimensional non-inferior solution
// curves that BUBBLE_CONSTRUCT and *PTREE propagate (Fig. 8 of the paper).
//
// A solution σ records the (load, required time, total buffer area) of a
// buffered routing structure rooted at some point, plus an int32 reference
// the owner uses to rebuild the structure during extraction. Definition 6 of
// the paper orders solutions: σ2 is inferior to σ1 iff
//
//	load(σ1) ≤ load(σ2) ∧ reqTime(σ2) ≤ reqTime(σ1) ∧ area(σ1) ≤ area(σ2).
//
// A Curve stores only the non-inferior frontier; Prune removes inferior
// solutions with an O(s log s) sweep.
package curve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"merlin/internal/rc"
)

// Solution is one point of a three-dimensional solution curve.
type Solution struct {
	// Load is the capacitance (pF) presented at the root of the structure.
	Load float64
	// Req is the required time (ns) at the root: the latest time the signal
	// may arrive there while still meeting every sink's requirement.
	Req float64
	// Area is the total buffer area (λ²) used inside the structure.
	Area float64
	// Ref is the back-pointer the owner uses to reconstruct the structure
	// (line 22 of BUBBLE_CONSTRUCT): an index into the owner's own ref
	// storage, so a curve holds no pointers for the GC to scan. The curve
	// package never inspects it.
	Ref int32
}

// Dominates reports whether s is at least as good as t in all three
// dimensions (Definition 6: t is inferior to s).
func (s Solution) Dominates(t Solution) bool {
	return s.Load <= t.Load && s.Req >= t.Req && s.Area <= t.Area
}

// String renders the solution triple for diagnostics.
func (s Solution) String() string {
	return fmt.Sprintf("{load=%.4gpF req=%.4gns area=%.4gλ²}", s.Load, s.Req, s.Area)
}

// Curve is a set of solutions, normally kept pruned to its non-inferior
// frontier. The zero value is an empty curve ready for use.
type Curve struct {
	Sols []Solution
}

// Len returns the number of stored solutions.
func (c *Curve) Len() int { return len(c.Sols) }

// Empty reports whether the curve holds no solutions.
func (c *Curve) Empty() bool { return len(c.Sols) == 0 }

// Add appends a solution without pruning. Callers batch Add and then Prune.
func (c *Curve) Add(s Solution) { c.Sols = append(c.Sols, s) }

// AddAll appends every solution of other without pruning.
func (c *Curve) AddAll(other *Curve) {
	if other != nil {
		c.Sols = append(c.Sols, other.Sols...)
	}
}

// Clone returns a deep copy of the curve's solution list (Refs are shared).
func (c *Curve) Clone() *Curve {
	out := &Curve{Sols: make([]Solution, len(c.Sols))}
	copy(out.Sols, c.Sols)
	return out
}

// Prune removes every inferior solution (Definition 6), leaving the curve
// sorted by increasing load, then increasing area. Exact duplicates collapse
// to a single representative. Lemma 9: pruning never loses a non-inferior
// solution — guaranteed here by construction and checked by property tests.
func (c *Curve) Prune() {
	if len(c.Sols) <= 1 {
		return
	}
	sols := c.Sols
	// Sort so any potential dominator precedes what it dominates:
	// load asc, then area asc, then req desc.
	slices.SortFunc(sols, func(a, b Solution) int {
		switch {
		case a.Load != b.Load:
			if a.Load < b.Load {
				return -1
			}
			return 1
		case a.Area != b.Area:
			if a.Area < b.Area {
				return -1
			}
			return 1
		case a.Req != b.Req:
			if a.Req > b.Req {
				return -1
			}
			return 1
		}
		return 0
	})
	// stair is the 2-D Pareto staircase (minimize area, maximize req) over
	// the survivors seen so far; along it, req strictly increases with area.
	// Since survivors were emitted in non-decreasing load order, a new
	// solution s is dominated iff some stair entry has area ≤ s.Area and
	// req ≥ s.Req — and the best candidate is the rightmost entry with
	// area ≤ s.Area, which carries the largest req among the eligible.
	type step struct{ area, req float64 }
	stair := make([]step, 0, len(sols))
	dominatedBy := func(s Solution) bool {
		i := sort.Search(len(stair), func(k int) bool { return stair[k].area > s.Area })
		if i == 0 {
			return false
		}
		return stair[i-1].req >= s.Req
	}
	insert := func(s Solution) {
		// Maintain staircase: drop entries dominated by s in (area, req).
		i := sort.Search(len(stair), func(i int) bool { return stair[i].area >= s.Area })
		// Entries at i.. with req <= s.Req are dominated by s.
		j := i
		for j < len(stair) && stair[j].req <= s.Req {
			j++
		}
		// Splice s into [i, j) in place: the staircase peaks at len(sols),
		// so after the make above this never reallocates.
		if j == i {
			stair = append(stair, step{})
			copy(stair[i+1:], stair[i:])
		} else {
			stair = append(stair[:i+1], stair[j:]...)
		}
		stair[i] = step{s.Area, s.Req}
	}
	out := sols[:0]
	for _, s := range sols {
		if dominatedBy(s) {
			continue
		}
		out = append(out, s)
		insert(s)
	}
	c.Sols = out
	assertFrontier(c, "Prune")
}

// The staircase reasoning above is subtle enough that Prune is additionally
// cross-checked against PruneNaive by property tests in this package.

// PruneNaive is the O(s²) reference implementation of Prune, used by tests
// as an oracle. Exact-duplicate triples collapse to one representative.
func (c *Curve) PruneNaive() {
	sols := c.Sols
	out := make([]Solution, 0, len(sols))
	for i, s := range sols {
		inferior := false
		for j, t := range sols {
			if i == j {
				continue
			}
			if !t.Dominates(s) {
				continue
			}
			if s.Dominates(t) {
				// Equal triples: keep only the first.
				if j < i {
					inferior = true
					break
				}
				continue
			}
			inferior = true
			break
		}
		if !inferior {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Req > b.Req
	})
	c.Sols = out
	assertFrontier(c, "PruneNaive")
}

// Dominated reports whether any stored solution dominates (load, req, area);
// equal triples count as dominating, so duplicates are rejected.
func (c *Curve) Dominated(load, req, area float64) bool {
	for _, t := range c.Sols {
		if t.Load <= load && t.Req >= req && t.Area <= area {
			return true
		}
	}
	return false
}

// Insert adds a solution to an already-pruned curve, keeping it pruned: if
// an existing solution dominates s the curve is unchanged and Insert returns
// false; otherwise solutions dominated by s are removed and s is appended.
// This O(s) incremental form is what the DP hot loops use in place of batch
// Add+Prune; the two are cross-checked by property tests.
func (c *Curve) Insert(s Solution) bool {
	if c.Dominated(s.Load, s.Req, s.Area) {
		return false
	}
	c.InsertKnownGood(s)
	return true
}

// InsertKnownGood appends s after removing solutions it dominates. The
// caller must already have checked !c.Dominated(s.Load, s.Req, s.Area); DP
// hot loops do that check before allocating the solution's back-pointer.
func (c *Curve) InsertKnownGood(s Solution) {
	out := c.Sols[:0]
	for _, t := range c.Sols {
		if s.Dominates(t) {
			continue
		}
		out = append(out, t)
	}
	c.Sols = append(out, s)
	assertInserted(c, "InsertKnownGood")
}

// InsertSol is TryInsert for a fully built Solution (its Ref included).
func (c *Curve) InsertSol(s Solution) bool {
	sols := c.Sols
	firstDead := -1
	for i := range sols {
		t := &sols[i]
		if t.Load <= s.Load && t.Req >= s.Req && t.Area <= s.Area {
			return false
		}
		if firstDead < 0 && s.Load <= t.Load && s.Req >= t.Req && s.Area <= t.Area {
			firstDead = i
		}
	}
	if firstDead < 0 {
		c.Sols = append(sols, s)
		assertInserted(c, "InsertSol")
		return true
	}
	out := sols[:firstDead]
	for _, t := range sols[firstDead+1:] {
		if s.Dominates(t) {
			continue
		}
		out = append(out, t)
	}
	c.Sols = append(out, s)
	assertInserted(c, "InsertSol")
	return true
}

// TryInsert is the fused hot-loop form of Dominated + Insert: one scan
// decides both directions of dominance. An inserted solution is always the
// last one, with a zero Ref; callers that need a back-pointer build it only
// then, so rejected candidates cost none. Returns whether it was inserted.
func (c *Curve) TryInsert(load, req, area float64) bool {
	sols := c.Sols
	firstDead := -1
	for i := range sols {
		t := &sols[i]
		if t.Load <= load && t.Req >= req && t.Area <= area {
			return false // dominated by an existing solution
		}
		if firstDead < 0 && load <= t.Load && req >= t.Req && area <= t.Area {
			firstDead = i
		}
	}
	s := Solution{Load: load, Req: req, Area: area}
	if firstDead < 0 {
		c.Sols = append(sols, s)
		assertInserted(c, "TryInsert")
		return true
	}
	out := sols[:firstDead]
	for _, t := range sols[firstDead+1:] {
		if s.Dominates(t) {
			continue
		}
		out = append(out, t)
	}
	c.Sols = append(out, s)
	assertInserted(c, "TryInsert")
	return true
}

// Cap thins the curve to at most max solutions while keeping the endpoints
// of the frontier. It keeps the best-required-time and best-area extremes
// and fills the budget with solutions evenly spaced along the frontier;
// max == 1 keeps just the BestReq solution. Capping trades optimality for
// speed exactly like coarser load quantization; max <= 0 means no cap.
//
// Cap works in place: the picked indices strictly increase, so each kept
// solution moves to a slot at or before its own and the backing array is
// reused.
func (c *Curve) Cap(max int) {
	if max <= 0 || len(c.Sols) <= max {
		return
	}
	if max == 1 {
		best, _ := c.BestReq()
		c.Sols = append(c.Sols[:0], best)
		assertNonInferior(c, "Cap")
		return
	}
	// Insertion sort by descending req: curves here are small (a few dozen
	// at most), where this beats the generic sort by a wide margin.
	sols := c.Sols
	for i := 1; i < len(sols); i++ {
		s := sols[i]
		j := i - 1
		for j >= 0 && sols[j].Req < s.Req {
			sols[j+1] = sols[j]
			j--
		}
		sols[j+1] = s
	}
	step := float64(len(sols)-1) / float64(max-1)
	kept := 0
	prev := -1
	for i := 0; i < max; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx == prev {
			continue
		}
		prev = idx
		sols[kept] = sols[idx]
		kept++
	}
	c.Sols = sols[:kept]
	assertNonInferior(c, "Cap")
}

// BestReq returns the solution with the maximum required time, breaking ties
// by smaller area then smaller load. ok is false on an empty curve.
func (c *Curve) BestReq() (best Solution, ok bool) {
	for i, s := range c.Sols {
		if i == 0 || better(s, best) {
			best, ok = s, true
		}
	}
	return best, ok
}

func better(a, b Solution) bool {
	if a.Req != b.Req {
		return a.Req > b.Req
	}
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	return a.Load < b.Load
}

// BestReqUnderArea returns the maximum-required-time solution whose total
// buffer area does not exceed areaBudget (problem variant I). ok is false if
// no solution fits.
func (c *Curve) BestReqUnderArea(areaBudget float64) (best Solution, ok bool) {
	for _, s := range c.Sols {
		if s.Area > areaBudget {
			continue
		}
		if !ok || better(s, best) {
			best, ok = s, true
		}
	}
	return best, ok
}

// MinAreaMeetingReq returns the minimum-buffer-area solution whose required
// time is at least reqFloor (problem variant II). ok is false if none meets
// the floor.
func (c *Curve) MinAreaMeetingReq(reqFloor float64) (best Solution, ok bool) {
	for _, s := range c.Sols {
		if s.Req < reqFloor {
			continue
		}
		if !ok || s.Area < best.Area || (s.Area == best.Area && s.Req > best.Req) {
			best, ok = s, true
		}
	}
	return best, ok
}

// WireOp describes the effect of extending every solution of a curve through
// a wire of the given λ length: the Elmore delay of the wire is charged
// against the required time and the wire capacitance is added to the load.
// mkRef, if non-nil, builds the new solution's Ref from the old solution;
// otherwise the old Ref is kept.
func (c *Curve) WireOp(t rc.Technology, length int64, mkRef func(Solution) int32) *Curve {
	out := &Curve{Sols: make([]Solution, 0, len(c.Sols))}
	wc := t.WireC(length)
	for _, s := range c.Sols {
		d := t.WireElmore(length, s.Load)
		assertFiniteDelay(d, "curve.WireOp: WireElmore")
		ns := Solution{
			Load: t.QuantizeLoad(s.Load + wc),
			Req:  s.Req - d,
			Area: s.Area,
		}
		if mkRef != nil {
			ns.Ref = mkRef(s)
		} else {
			ns.Ref = s.Ref
		}
		out.Add(ns)
	}
	return out
}

// BufferOp returns the curve obtained by driving every solution with gate g:
// the load collapses to g's input capacitance, the gate delay (at nominal
// slew) is charged, and the gate area is added. mkRef, if non-nil, builds
// the new solution's Ref from the old solution.
func (c *Curve) BufferOp(t rc.Technology, g rc.Gate, mkRef func(Solution) int32) *Curve {
	out := &Curve{Sols: make([]Solution, 0, len(c.Sols))}
	cin := t.QuantizeLoad(g.Cin)
	for _, s := range c.Sols {
		d := g.DelayNominal(t, s.Load)
		assertFiniteDelay(d, "curve.BufferOp: DelayNominal")
		ns := Solution{
			Load: cin,
			Req:  s.Req - d,
			Area: s.Area + g.Area,
		}
		if mkRef != nil {
			ns.Ref = mkRef(s)
		}
		out.Add(ns)
	}
	return out
}

// JoinOp returns the cross-product merge of two curves rooted at the same
// point: loads and areas add, required times take the minimum. mkRef builds
// the merged Ref from the two constituents.
func JoinOp(a, b *Curve, mkRef func(x, y Solution) int32) *Curve {
	out := &Curve{Sols: make([]Solution, 0, len(a.Sols)*len(b.Sols))}
	for _, x := range a.Sols {
		for _, y := range b.Sols {
			ns := Solution{
				Load: x.Load + y.Load,
				Req:  math.Min(x.Req, y.Req),
				Area: x.Area + y.Area,
			}
			if mkRef != nil {
				ns.Ref = mkRef(x, y)
			}
			out.Add(ns)
		}
	}
	return out
}
