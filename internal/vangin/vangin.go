// Package vangin implements van Ginneken's dynamic-programming buffer
// insertion on a fixed routing tree [Gi90], the second half of the paper's
// Flow II ("routing tree generation using PTREE is followed by buffer
// insertion using the method of [Gi90]").
//
// The classic algorithm propagates (load, required time) pairs bottom-up
// over the tree, optionally inserting a buffer at every legal position; this
// implementation carries the third buffer-area dimension as well, so Flow II
// reports the same triple as the other flows. Long wires are subdivided to
// create interior insertion points, the standard extension.
package vangin

import (
	"fmt"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// Options control insertion granularity and pruning.
type Options struct {
	// SegLen subdivides wires so no segment exceeds this λ length, creating
	// interior buffer-insertion points. 0 means no subdivision (buffers only
	// at existing tree nodes).
	SegLen int64
	// MaxSols caps solution curves.
	MaxSols int
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options { return Options{SegLen: 0, MaxSols: 12} }

// refKind discriminates ref shapes.
type refKind int8

const (
	refSink   refKind = iota // sink pin
	refBranch                // branch node with no children joined yet
	refJoin                  // branch a with one more child b joined
	refBuffer                // buffer at pos driving a
	refWire                  // wire waypoint at pos above a
)

// ref reconstructs the buffered tree: curve.Solution.Ref indexes the run's
// refs. A branch node's children are the b's of its join chain.
type ref struct {
	kind    refKind
	pos     geom.Point
	sinkIdx int
	buffer  *rc.Gate // refBuffer: the inserted or fixed gate
	a, b    int32
}

// run is one Insert call's state: the inputs plus the ref store its
// solutions index. Record 0 is "no ref".
type run struct {
	lib  *buflib.Library
	tech rc.Technology
	opts Options
	refs []ref
}

func (r *run) newRef(x ref) int32 {
	r.refs = append(r.refs, x)
	return int32(len(r.refs) - 1)
}

// Insert runs buffer insertion on t (which must be unbuffered or partially
// buffered — existing buffers are kept as-is and treated as fixed gates) and
// returns a new tree with buffers from lib inserted to maximize the required
// time at the driver input, accounting for the driver gate's load-dependent
// delay. The input tree is not modified.
func Insert(t *tree.Tree, lib *buflib.Library, tech rc.Technology, opts Options) (*tree.Tree, curve.Solution, error) {
	if opts.MaxSols <= 0 {
		opts.MaxSols = 12
	}
	root := t.Root
	if root == nil {
		return nil, curve.Solution{}, fmt.Errorf("vangin: empty tree")
	}
	r := &run{lib: lib, tech: tech, opts: opts, refs: []ref{{}}}
	c := r.bottomUp(t, root)
	if c.Empty() {
		return nil, curve.Solution{}, fmt.Errorf("vangin: no solutions")
	}
	driver := t.Net.Driver
	if driver.Name == "" {
		driver = lib.Driver
	}
	best := c.Sols[0]
	bestVal := best.Req - driver.DelayNominal(tech, best.Load)
	for _, s := range c.Sols[1:] {
		if v := s.Req - driver.DelayNominal(tech, s.Load); v > bestVal ||
			(v == bestVal && s.Area < best.Area) {
			best, bestVal = s, v
		}
	}
	out := tree.New(t.Net)
	out.Root.Children = r.buildNode(best.Ref).Children
	if err := out.Validate(); err != nil {
		return nil, curve.Solution{}, fmt.Errorf("vangin: rebuilt tree invalid: %w", err)
	}
	return out, best, nil
}

// bottomUp returns the solution curve looking into node n from its parent,
// before the parent wire (the wire to the parent is applied by the caller).
func (r *run) bottomUp(t *tree.Tree, n *tree.Node) *curve.Curve {
	var base *curve.Curve
	switch n.Kind {
	case tree.KindSink:
		base = &curve.Curve{}
		s := t.Net.Sinks[n.SinkIdx]
		base.Add(curve.Solution{
			Load: r.tech.QuantizeLoad(s.Load),
			Req:  s.Req,
			Ref:  r.newRef(ref{kind: refSink, pos: n.Pos, sinkIdx: n.SinkIdx}),
		})
		return base // no buffer directly on a sink pin
	default:
		// Join children through their wires.
		base = &curve.Curve{}
		base.Add(curve.Solution{Req: inf(), Ref: r.newRef(ref{kind: refBranch, pos: n.Pos})})
		for _, ch := range n.Children {
			cc := r.bottomUp(t, ch)
			cc = r.wireWithInsertion(cc, n.Pos, ch.Pos)
			base = curve.JoinOp(base, cc, func(x, y curve.Solution) int32 {
				return r.newRef(ref{kind: refJoin, pos: n.Pos, a: x.Ref, b: y.Ref})
			})
			base.Prune()
			base.Cap(r.opts.MaxSols)
		}
	}
	if n.Kind == tree.KindBuffer {
		// Existing buffer is fixed: apply it, no choice.
		b := n.Buffer
		base = base.BufferOp(r.tech, b, func(old curve.Solution) int32 {
			return r.newRef(ref{kind: refBuffer, pos: n.Pos, buffer: &b, a: old.Ref})
		})
		base.Prune()
		return base
	}
	if n.Kind == tree.KindSource {
		return base
	}
	// Steiner point: optionally insert a buffer.
	return r.withBufferOption(base, n.Pos)
}

// withBufferOption unions the unbuffered curve with one buffered variant per
// library cell, at position pos.
func (r *run) withBufferOption(c *curve.Curve, pos geom.Point) *curve.Curve {
	acc := c.Clone()
	for i := range r.lib.Buffers {
		b := &r.lib.Buffers[i]
		acc.AddAll(c.BufferOp(r.tech, *b, func(old curve.Solution) int32 {
			return r.newRef(ref{kind: refBuffer, pos: pos, buffer: b, a: old.Ref})
		}))
	}
	acc.Prune()
	acc.Cap(r.opts.MaxSols)
	return acc
}

// wireWithInsertion carries curve c (rooted at childPos) up the wire to
// parentPos, inserting optional buffers at interior subdivision points.
func (r *run) wireWithInsertion(c *curve.Curve, parentPos, childPos geom.Point) *curve.Curve {
	total := geom.Dist(parentPos, childPos)
	if total == 0 {
		return c
	}
	segs := int64(1)
	if r.opts.SegLen > 0 && total > r.opts.SegLen {
		segs = (total + r.opts.SegLen - 1) / r.opts.SegLen
	}
	cur := c
	for s := int64(0); s < segs; s++ {
		// Segment lengths sum to total; interior points are evenly spaced on
		// the Manhattan path (their exact embedding does not change delay).
		segLen := total / segs
		if s < total%segs {
			segLen++
		}
		frac := float64(s+1) / float64(segs)
		pos := geom.Point{
			X: childPos.X + int64(frac*float64(parentPos.X-childPos.X)),
			Y: childPos.Y + int64(frac*float64(parentPos.Y-childPos.Y)),
		}
		cur = cur.WireOp(r.tech, segLen, func(old curve.Solution) int32 {
			return r.newRef(ref{kind: refWire, pos: pos, a: old.Ref})
		})
		cur.Prune()
		if s < segs-1 { // interior point: buffer option
			cur = r.withBufferOption(cur, pos)
		}
		cur.Cap(r.opts.MaxSols)
	}
	return cur
}

func inf() float64 { return 1e300 }

// buildNode converts a ref into a tree node subtree rooted at the ref's
// position.
func (r *run) buildNode(i int32) *tree.Node {
	x := r.refs[i]
	switch x.kind {
	case refSink:
		return &tree.Node{Kind: tree.KindSink, Pos: x.pos, SinkIdx: x.sinkIdx}
	case refBuffer:
		n := &tree.Node{Kind: tree.KindBuffer, Pos: x.pos, Buffer: *x.buffer}
		n.AddChild(r.buildNode(x.a))
		return n
	case refWire:
		// Pure wire waypoint: collapse — the child carries the position that
		// matters; wirelength is preserved because waypoints lie on the
		// Manhattan path.
		n := &tree.Node{Kind: tree.KindSteiner, Pos: x.pos}
		n.AddChild(r.buildNode(x.a))
		return n
	default:
		// Walk the join chain back to its empty branch, collecting the
		// children right to left.
		var kids []int32
		for ; x.kind == refJoin; x = r.refs[x.a] {
			kids = append(kids, x.b)
		}
		n := &tree.Node{Kind: tree.KindSteiner, Pos: x.pos}
		for k := len(kids) - 1; k >= 0; k-- {
			n.AddChild(r.buildNode(kids[k]))
		}
		return n
	}
}
