package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"merlin/internal/curve"
	"merlin/internal/order"
	"merlin/internal/tree"
)

// memoSolutions lists every solution Ref of the memo, in a fixed order
// (sorted key, candidate, position) so two listings of the same engine line
// up.
func memoSolutions(en *Engine) []*curve.Solution {
	var out []*curve.Solution
	keys := make([]string, 0, len(en.memo))
	for k := range en.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, c := range en.memo[k] {
			if c == nil {
				continue
			}
			for i := range c.Sols {
				out = append(out, &c.Sols[i])
			}
		}
	}
	return out
}

// liveRefs counts the records reachable from the compaction roots, the
// reserved record 0 included.
func liveRefs(en *Engine) int {
	n := 1
	for _, f := range en.markRefs()[1:] {
		if f != 0 {
			n++
		}
	}
	return n
}

// TestCompactionPreservesTrees: after a forced compaction, every solution of
// every memo curve rebuilds exactly the structure it built before, a pinned
// solution outside them still builds its tree, and the compacted slab keeps
// children below parents.
func TestCompactionPreservesTrees(t *testing.T) {
	nt, cands, lib, tech, opts := goldenNet(6, 3)
	en := NewEngine(nt, cands, lib, tech, opts)
	en.refs.live = math.MaxInt32 / 2 // no automatic compaction: keep the garbage
	res, err := en.Merlin(nil)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Solution
	defer en.pin(&best)()

	// Memo curves mostly cover sub-groups, not the whole net, so their
	// structures are rebuilt as subtrees rather than validated trees.
	subtree := func(s *curve.Solution) string {
		return treeHash(&tree.Tree{Root: en.buildNode(s.Ref)})
	}
	sols := memoSolutions(en)
	before := make([]string, len(sols))
	for i, s := range sols {
		before[i] = subtree(s)
	}
	bestTree := treeHash(res.Tree)
	slab := en.refs.n

	en.compactRefs()
	if en.refs.n >= slab {
		t.Fatalf("compaction kept all %d refs; the test needs garbage to collect", slab)
	}
	if got := liveRefs(en); got != int(en.refs.n) {
		t.Fatalf("after compaction the slab holds %d refs but %d are live", en.refs.n, got)
	}
	for i := int32(1); i < en.refs.n; i++ {
		r := en.refs.at(i)
		if r.a >= i || r.b >= i {
			t.Fatalf("ref %d points forward to (%d, %d)", i, r.a, r.b)
		}
	}
	for i, s := range sols {
		if subtree(s) != before[i] {
			t.Fatalf("solution %d rebuilds a different structure after compaction", i)
		}
	}
	tr, err := en.BuildTree(best)
	if err != nil {
		t.Fatal(err)
	}
	if treeHash(tr) != bestTree {
		t.Fatal("the pinned best solution rebuilds a different tree after compaction")
	}
	t.Logf("compacted %d refs to %d", slab, en.refs.n)
}

// resultBits is everything a Result reports, exactly: the solution's float
// bits, the loop count, the final order, the tree and the source frontier.
func resultBits(t *testing.T, en *Engine, res *Result) []any {
	t.Helper()
	out := []any{
		math.Float64bits(res.Solution.Load), math.Float64bits(res.Solution.Req),
		math.Float64bits(res.Solution.Area), math.Float64bits(res.ReqAtDriverInput),
		res.Loops, fmt.Sprint(res.FinalOrder), treeHash(res.Tree),
	}
	for _, s := range res.Frontier.Sols {
		out = append(out, math.Float64bits(s.Load), math.Float64bits(s.Req), math.Float64bits(s.Area))
	}
	// The Result's refs stay valid after MerlinCtx returns.
	tr, err := en.BuildTree(res.Solution)
	if err != nil {
		t.Fatalf("BuildTree(res.Solution) after return: %v", err)
	}
	if treeHash(tr) != treeHash(res.Tree) {
		t.Fatal("BuildTree(res.Solution) after return differs from res.Tree")
	}
	return out
}

// TestReusedEngineMatchesFresh: as the service's engine cache does, a second
// MerlinCtx on an engine that already solved the net — under a different
// goal and from a different start order — answers bit for bit like a fresh
// engine, although compactions renumbered the refs in between.
func TestReusedEngineMatchesFresh(t *testing.T) {
	nt, cands, lib, tech, opts := goldenNet(6, 1)
	reused := NewEngine(nt, cands, lib, tech, opts)
	first, err := reused.MerlinCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resultBits(t, reused, first)
	if reused.refs.live == 0 {
		t.Fatal("no compaction ran during the first search")
	}

	second := opts
	second.Goal = Goal{Mode: GoalMinArea, ReqFloor: first.ReqAtDriverInput - 0.1}
	start := order.Identity(nt.N())
	reused.Opts.Goal = second.Goal
	got, err := reused.MerlinCtx(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(nt, cands, lib, tech, second)
	want, err := fresh.MerlinCtx(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	g, w := resultBits(t, reused, got), resultBits(t, fresh, want)
	if len(g) != len(w) {
		t.Fatalf("reused engine reports %d values, fresh %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("reused engine differs from a fresh one at value %d: %v vs %v", i, g[i], w[i])
		}
	}
}

// TestSlabStaysBounded: repeated searches on one engine from different
// start orders keep the slab within twice its live refs plus one page.
func TestSlabStaysBounded(t *testing.T) {
	nt, cands, lib, tech, opts := goldenNet(6, 2)
	en := NewEngine(nt, cands, lib, tech, opts)
	rng := rand.New(rand.NewSource(5))
	for run := 0; run < 5; run++ {
		start := order.Order(rng.Perm(nt.N()))
		if _, err := en.Merlin(start); err != nil {
			t.Fatal(err)
		}
		live := liveRefs(en)
		capacity := len(en.refs.pages) * refPageSize
		if capacity > 2*live+refPageSize {
			t.Fatalf("run %d: slab capacity %d refs for %d live (bound %d)", run, capacity, live, 2*live+refPageSize)
		}
		t.Logf("run %d: %d refs in use, %d live, capacity %d", run, en.refs.n, live, capacity)
	}
}
