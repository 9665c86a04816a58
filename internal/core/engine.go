package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/faultinject"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// GoalMode selects the problem variant of §III.1.
type GoalMode int

const (
	// GoalMaxReq maximizes the driver required time, optionally subject to a
	// total buffer area budget (variant I).
	GoalMaxReq GoalMode = iota
	// GoalMinArea minimizes total buffer area subject to a required-time
	// floor at the driver input (variant II).
	GoalMinArea
)

// Goal is the optimization objective handed to extraction (Fig. 9 line 21).
type Goal struct {
	Mode GoalMode
	// AreaBudget caps total buffer area for GoalMaxReq; 0 means unbounded.
	AreaBudget float64
	// ReqFloor is the minimum driver-input required time for GoalMinArea.
	ReqFloor float64
}

// Options tune BUBBLE_CONSTRUCT and MERLIN.
type Options struct {
	// Alpha is the maximum branching factor α of the Cα_Tree (Definition 2).
	Alpha int
	// MaxSols caps every solution curve; 0 = uncapped. See DESIGN.md §5.
	MaxSols int
	// TransferHops is the number of candidate-to-candidate relaxation sweeps
	// per DP interval (the S = min{d(p,p′)+S′} recursion of §3.2.3).
	TransferHops int
	// BufferAtSteiner enables buffer insertion at interior routing Steiner
	// points (the full *P_Tree). When false, buffers appear only at Cα_Tree
	// internal nodes.
	BufferAtSteiner bool
	// RootWindow restricts the candidate roots of each sub-group to points
	// within its sink bounding box inflated by this fraction of the net's
	// half-perimeter (plus the source, always). 0 disables the restriction.
	// This is the standard P-Tree candidate-pruning heuristic: structures
	// rooted far from everything they drive are dominated once the
	// connecting wire is charged. It cuts the k² transfer and k join work
	// per sub-problem at a small optimality cost (measured in the E6/E8
	// benches).
	RootWindow float64
	// MaxInternalChildren bounds how many internal nodes an internal node
	// may have among its immediate children. 1 (the default) is Definition
	// 2's Cα_Tree, whose internal nodes form a chain (Lemma 2); 2 enables
	// the relaxed class §3.2.1 mentions, at a significant enumeration cost.
	MaxInternalChildren int
	// ForceGroupBuffers drops unbuffered roots from every sub-group curve,
	// so each internal node of the hierarchy really is a buffer and the
	// output is a strict Cα_Tree (Definition 2). The paper's base case keeps
	// both options ("driven with or without a buffer"), letting a group stay
	// a plain Steiner point; structural tests use this switch to pin the
	// strict form, where the buffer-fanout bound α is observable in the
	// final tree.
	ForceGroupBuffers bool
	// Chis lists the grouping structures to explore. nil means all four;
	// []Chi{Chi0} disables bubbling (the ablation of experiment E8).
	Chis []Chi
	// MaxLoops bounds MERLIN's outer iterations; 0 means run to the order
	// fixpoint (Theorem 7 guarantees termination).
	MaxLoops int
	// Goal selects the extraction objective.
	Goal Goal
	// Budget bounds one search's resource usage (retained solutions, wall
	// time); the zero value is unlimited. Exceeding it aborts with
	// ErrBudgetExceeded. Like Goal and MaxLoops, Budget does not shape the
	// memoized curves, so engines may be reused across budgets.
	Budget Budget
}

// DefaultOptions returns a balanced configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:           8,
		MaxSols:         8,
		TransferHops:    1,
		BufferAtSteiner: true,
		RootWindow:      0.08,
	}
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 8
	}
	if o.TransferHops <= 0 {
		o.TransferHops = 1
	}
	if len(o.Chis) == 0 {
		o.Chis = []Chi{Chi0, Chi1, Chi2, Chi3}
	}
	return o
}

// Engine runs BUBBLE_CONSTRUCT for one net over a fixed candidate set,
// library and technology. It is reusable across MERLIN iterations; the
// sub-problem memo persists so overlapping neighborhoods share sub-solutions
// (the OVERLAP reuse discussed in §III.4).
type Engine struct {
	Net   *net.Net
	Cands []geom.Point
	Lib   *buflib.Library
	Tech  rc.Technology
	Opts  Options

	srcIdx int
	dist   [][]int64
	margin int64 // root-window inflation in λ (0 = unrestricted)

	// memo caches sub-problem curves by content, across (L,E,R) sub-problems
	// and MERLIN iterations. A sub-problem's curves depend only on which
	// sinks it holds in which realized order, not on where in the order it
	// sits (Lemma 7), so overlapping neighborhoods of consecutive iterations
	// share them: the OVERLAP optimization of §III.4 ("keep the solution
	// curves of the very last iteration ... at the cost of doubling the
	// memory usage"). One table holds three kinds of entry, told apart by
	// the first byte of the key (see memoKey): Γ sub-groups, whole *PTREE
	// calls (bubble-aligned nestings often produce one item list from
	// different (l,e,r) enumerations), and non-final runs of directly
	// attached sinks.
	memo map[string][]*curve.Curve
	key  []byte // memoKey's buffer, reused by every lookup

	// refs holds every solution's back-pointer; pinned is an extra
	// compaction root (see refs.go).
	refs   refSlab
	pinned *curve.Solution

	// Scratch reused across sub-problems, so the DP's working curves and
	// copies never allocate once warm. Stored curves are copied out of it
	// at their exact size by store.
	work    []curve.Curve    // starDP: per-candidate curves of one interval
	acc     []curve.Curve    // ConstructCtx: per-candidate Γ accumulator
	base    []curve.Solution // addBufferedVariants: the pre-buffer curve
	snap    []curve.Solution // transfer: all candidates' curves, flattened
	snapOff []int            // transfer: snap offsets per candidate, k+1
	sums    []summary        // transfer: per-candidate summaries
	mask    []bool           // intervalMask result

	// stats: *PTREE calls run, and memo lookups of any kind that hit
	StarDPCalls int
	MemoHits    int

	// budget accounting (see robust.go); valid inside one budget window.
	budgetActive bool
	budgetUsed   int
	budgetStart  time.Time
}

// NewEngine prepares an engine. The candidate set is deduplicated and the
// source position appended if missing.
//
// Concurrency contract: an Engine is NOT safe for concurrent use. Construct,
// Merlin and Extract all mutate the engine's memo table, key buffer, ref slab
// and stats counters without synchronization — the memo is the whole point
// of engine reuse (§III.4's OVERLAP optimization), and guarding it would
// serialize the DP hot loops. Use one Engine per goroutine. The
// inputs (net, candidates, library, technology) are only read, so any number
// of engines may share them; this is what a worker pool relies on when each
// worker owns its engines over shared immutable nets and libraries (see
// internal/service and TestEnginePerGoroutine).
func NewEngine(n *net.Net, cands []geom.Point, lib *buflib.Library, tech rc.Technology, opts Options) *Engine {
	en := &Engine{
		Net: n, Lib: lib, Tech: tech, Opts: opts.withDefaults(),
		memo: map[string][]*curve.Curve{},
	}
	en.Cands = geom.Dedup(cands)
	en.srcIdx = -1
	for i, p := range en.Cands {
		if p == n.Source {
			en.srcIdx = i
			break
		}
	}
	if en.srcIdx < 0 {
		en.srcIdx = len(en.Cands)
		en.Cands = append(en.Cands, n.Source)
	}
	k := len(en.Cands)
	en.dist = make([][]int64, k)
	for i := range en.dist {
		en.dist[i] = make([]int64, k)
		for j := range en.dist[i] {
			en.dist[i][j] = geom.Dist(en.Cands[i], en.Cands[j])
		}
	}
	if en.Opts.RootWindow > 0 {
		hp := geom.BoundingBox(n.Terminals()).HalfPerimeter()
		en.margin = int64(en.Opts.RootWindow * float64(hp))
	}
	en.refs.n = 1 // record 0 is "no ref"
	en.work, en.acc = make([]curve.Curve, k), make([]curve.Curve, k)
	en.snapOff = make([]int, k+1)
	en.sums = make([]summary, k)
	en.mask = make([]bool, k)
	return en
}

// reset empties every scratch curve of cs, keeping its capacity.
func reset(cs []curve.Curve) {
	for p := range cs {
		cs[p].Sols = cs[p].Sols[:0]
	}
}

// store copies per-candidate scratch curves into stored curves of exactly
// their size: one backing array for all of them, each curve capped at its
// own length, so an append to a stored curve can never write into another.
func store(cs []curve.Curve) []*curve.Curve {
	total := 0
	for p := range cs {
		total += len(cs[p].Sols)
	}
	all := make([]curve.Solution, total)
	cells := make([]curve.Curve, len(cs))
	out := make([]*curve.Curve, len(cs))
	off := 0
	for p := range cs {
		n := copy(all[off:], cs[p].Sols)
		if n > 0 {
			cells[p].Sols = all[off : off+n : off+n]
		}
		off += n
		out[p] = &cells[p]
	}
	return out
}

// intervalMask returns, for a run of items, which candidate roots are inside
// the items' inflated bounding box (the source is always allowed). A nil
// return means "all allowed". The result is engine scratch, valid until the
// next call.
func (en *Engine) intervalMask(items []item) []bool {
	if en.Opts.RootWindow <= 0 {
		return nil
	}
	box := items[0].bbox
	for _, it := range items[1:] {
		b := it.bbox
		if b.Min.X < box.Min.X {
			box.Min.X = b.Min.X
		}
		if b.Min.Y < box.Min.Y {
			box.Min.Y = b.Min.Y
		}
		if b.Max.X > box.Max.X {
			box.Max.X = b.Max.X
		}
		if b.Max.Y > box.Max.Y {
			box.Max.Y = b.Max.Y
		}
	}
	box.Min.X -= en.margin
	box.Min.Y -= en.margin
	box.Max.X += en.margin
	box.Max.Y += en.margin
	mask := en.mask
	for i, p := range en.Cands {
		mask[i] = box.Contains(p)
	}
	mask[en.srcIdx] = true
	return mask
}

// SourceIndex returns the candidate index of the net source.
func (en *Engine) SourceIndex() int { return en.srcIdx }

// item is one child of the sub-group being constructed: either a directly
// attached sink or an inner sub-group.
type item struct {
	group   *innerGroup // nil for a directly attached sink
	sinkIdx int         // net sink index (valid when group == nil)
	bbox    geom.Rect   // bounding box of the item's sinks (root window)
}

// innerGroup is one already-solved sub-group nested as a child.
type innerGroup struct {
	curves []*curve.Curve // per-candidate Γ curves
	ids    []int          // net sinks, in realized order
	bbox   geom.Rect      // bounding box of the sinks
	r      int            // rightmost span position
	span   int
	e      Chi
}

// innerGroups lists the solved sub-groups of lengths lMin..lMax that can nest
// inside the sub-problem with sink positions G and span [R-span+1, R] (Fig. 9
// lines 11–15), in (l, χ, r) order with r descending. Line 15 skips
// incompatible nestings: a group holding a sink outside G.
func (en *Engine) innerGroups(ord order.Order, G []int, R, span, lMin, lMax int, gam func(l int, e Chi, r int) []*curve.Curve) []innerGroup {
	var out []innerGroup
	for l := lMin; l <= lMax; l++ {
		for _, e := range en.Opts.Chis {
			ispan := l + Stretch(e)
			if ispan < minSpan(e) {
				continue
			}
			for r := R; r-ispan+1 >= R-span+1; r-- {
				if !SpanFits(len(ord), r, l, e) {
					continue
				}
				g := SinkSet(r, ispan, e)
				if len(g) != l {
					continue
				}
				inner := gam(l, e, r)
				if inner == nil || !subset(g, G) {
					continue
				}
				pts := make([]geom.Point, l)
				for i, q := range g {
					g[i] = ord[q] // SinkSet's fresh slice becomes the net-sink ids
					pts[i] = en.Net.Sinks[g[i]].Pos
				}
				out = append(out, innerGroup{curves: inner, ids: g, bbox: geom.BoundingBox(pts), r: r, span: ispan, e: e})
			}
		}
	}
	return out
}

// subset reports whether every element of g is in G.
func subset(g, G []int) bool {
	for _, q := range g {
		if !slices.Contains(G, q) {
			return false
		}
	}
	return true
}

// Construct runs BUBBLE_CONSTRUCT (Fig. 9) for the given sink order and
// returns the final per-candidate solution curves Γ(n, χ0, R=n−1, ·).
// gcBoost reference-counts the GC-target override so concurrent
// constructions (one engine per goroutine, e.g. the merlind worker pool)
// compose: debug.SetGCPercent is process-global, and a naive
// save/set/restore pair interleaves badly — a worker finishing early would
// restore the default mid-flight under another worker, and the last one out
// could "restore" the boosted value permanently. The first construction in
// sets the boost, the last one out restores what it found.
var gcBoost struct {
	mu    sync.Mutex
	depth int
	prev  int
}

func acquireGCBoost() {
	gcBoost.mu.Lock()
	defer gcBoost.mu.Unlock()
	if gcBoost.depth == 0 {
		gcBoost.prev = debug.SetGCPercent(300)
	}
	gcBoost.depth++
}

func releaseGCBoost() {
	gcBoost.mu.Lock()
	defer gcBoost.mu.Unlock()
	gcBoost.depth--
	if gcBoost.depth == 0 {
		debug.SetGCPercent(gcBoost.prev)
	}
}

// Use Extract / BuildTree on the result.
func (en *Engine) Construct(ord order.Order) ([]*curve.Curve, error) {
	return en.ConstructCtx(context.Background(), ord)
}

// ConstructCtx is Construct with cooperative cancellation: the DP checks
// ctx between (L, E, R) sub-problems — the outer loops of Fig. 9 — and
// returns an error wrapping ctx.Err() once the context is done. Sub-problems
// are the natural check granularity: each is itself a bounded *PTREE call,
// so cancellation latency is one sub-problem, not one whole construction.
//
// ConstructCtx is an engine boundary: panics from the DP internals
// (including the invariant panics of group.go) are recovered and returned
// as errors wrapping ErrInternal, and Opts.Budget is enforced at the same
// sub-problem granularity as cancellation, returning ErrBudgetExceeded when
// the retained-solution count or wall-time bound is crossed.
func (en *Engine) ConstructCtx(ctx context.Context, ord order.Order) (final []*curve.Curve, err error) {
	defer recoverToErr(&err)
	if en.beginBudget() {
		defer en.endBudget()
	}
	n := len(ord)
	if n == 0 || n != en.Net.N() || !ord.Valid() {
		return nil, fmt.Errorf("core: order must be a permutation of the %d sinks", en.Net.N())
	}
	// The DP still allocates its stored curves and ref-slab pages at a high
	// rate; with the default GC target the collector costs about a tenth of
	// a golden-corpus run (4–7 sinks). Trade heap headroom for throughput
	// while the construction runs.
	acquireGCBoost()
	defer releaseGCBoost()
	k := len(en.Cands)

	// Γ(L, E, R, ·); indexed [L-1][E][R]. Entries stay nil when the span
	// does not fit.
	gamma := make([][][][]*curve.Curve, n)
	for L := range gamma {
		gamma[L] = make([][][]*curve.Curve, NumChi)
		for e := range gamma[L] {
			gamma[L][e] = make([][]*curve.Curve, n)
		}
	}
	gam := func(l int, e Chi, r int) []*curve.Curve { return gamma[l-1][e][r] }

	// INITIALIZATION (lines 1–4): length-1 sub-groups for every structure,
	// candidate and rightmost position: non-inferior paths from the
	// candidate to the (single) sink, driven with or without a buffer.
	for _, e := range en.Opts.Chis {
		for r := 0; r < n; r++ {
			if !SpanFits(n, r, 1, e) {
				continue
			}
			g := SinkSet(r, 1+Stretch(e), e)
			if len(g) != 1 {
				continue
			}
			sinkIdx := ord[g[0]]
			cached, key := en.lookupGamma(e, []int{sinkIdx})
			if cached != nil {
				gamma[0][e][r] = cached
				en.chargeSols(cached)
				continue
			}
			for p := 0; p < k; p++ {
				c := &en.work[p]
				c.Sols = append(c.Sols[:0], en.leafSol(p, sinkIdx))
				en.addBufferedVariants(c, p)
				c.Cap(en.Opts.MaxSols)
			}
			cs := store(en.work)
			gamma[0][e][r] = cs
			en.memo[key] = cs
			en.chargeSols(cs)
		}
	}
	if err := en.checkBudget(); err != nil {
		return nil, err
	}

	// CONSTRUCTION (lines 5–20).
	for L := 2; L <= n; L++ {
		for _, E := range en.Opts.Chis {
			span := L + Stretch(E)
			if span > n {
				continue
			}
			for R := n - 1; R >= span-1; R-- {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: construct canceled at L=%d: %w", L, err)
				}
				if err := en.checkBudget(); err != nil {
					return nil, err
				}
				if err := faultinject.Fire(faultinject.SiteCoreConstruct); err != nil {
					return nil, fmt.Errorf("core: construct aborted at L=%d: %w", L, err)
				}
				if !SpanFits(n, R, L, E) {
					continue
				}
				G := SinkSet(R, span, E)
				Gids := make([]int, len(G))
				for i, q := range G {
					Gids[i] = ord[q]
				}
				cached, key := en.lookupGamma(E, Gids)
				if cached != nil {
					gamma[L-1][E][R] = cached
					en.chargeSols(cached)
					continue
				}
				reset(en.acc)
				lMin := max(1, L-en.Opts.Alpha+1)
				groups := en.innerGroups(ord, G, R, span, lMin, L-1, gam)
				for i := range groups {
					en.accumulate(en.starDP(en.buildItems(ord, G, groups[i:i+1])))
				}
				if en.Opts.MaxInternalChildren >= 2 {
					en.enumeratePairs(ord, G, L, R, span, gam)
				}
				any := false
				for p := 0; p < k; p++ {
					en.acc[p].Cap(en.Opts.MaxSols)
					if !en.acc[p].Empty() {
						any = true
					}
				}
				if any {
					acc := store(en.acc)
					gamma[L-1][E][R] = acc
					en.memo[key] = acc
					en.chargeSols(acc)
				}
			}
		}
	}

	final = gamma[n-1][Chi0][n-1]
	if final == nil {
		return nil, fmt.Errorf("core: no solution constructed (n=%d, α=%d)", n, en.Opts.Alpha)
	}
	assertFinalCurves(final, "ConstructCtx")
	en.maybeCompactRefs()
	return final, nil
}

// accumulate merges the per-candidate curves of one nesting into the Γ
// accumulator of the sub-problem being built.
func (en *Engine) accumulate(res []*curve.Curve) {
	for p, c := range res {
		for _, s := range c.Sols {
			en.acc[p].InsertSol(s)
		}
	}
}

// leafSol is the minimum-distance path from candidate p to a sink.
func (en *Engine) leafSol(p, sinkIdx int) curve.Solution {
	sk := en.Net.Sinks[sinkIdx]
	wl := geom.Dist(en.Cands[p], sk.Pos)
	return curve.Solution{
		Load: en.Tech.QuantizeLoad(sk.Load + en.Tech.WireC(wl)),
		Req:  sk.Req - en.Tech.WireElmore(wl, sk.Load),
		Ref:  en.newRef(ref{kind: refLeaf, point: int32(p), idx: int32(sinkIdx)}),
	}
}

// addBufferedVariants inserts into c, for every current solution and every
// library buffer, the variant driven by that buffer placed at candidate p.
// c must already be pruned; it stays pruned.
func (en *Engine) addBufferedVariants(c *curve.Curve, p int) {
	base := append(en.base[:0], c.Sols...) // inserts mutate c in place
	en.base = base
	bs := summarize(base)
	for bi := range en.Lib.Buffers {
		b := &en.Lib.Buffers[bi]
		cin := en.Tech.QuantizeLoad(b.Cin)
		if c.Dominated(cin, bs.maxReq-b.DelayNominal(en.Tech, bs.minLoad), bs.minArea+b.Area) {
			continue
		}
		for si := range base {
			s := &base[si]
			req := s.Req - b.DelayNominal(en.Tech, s.Load)
			if c.TryInsert(cin, req, s.Area+b.Area) {
				c.Sols[len(c.Sols)-1].Ref = en.newRef(ref{kind: refBuf, point: int32(p), idx: int32(bi), a: s.Ref})
			}
		}
	}
}

// buildItems assembles the ordered child list of the sub-group being built:
// the inner groups, whose spans are pairwise disjoint, plus the directly
// attached sinks of G they leave out. Bubble-out (Fig. 5) applies per group:
// a sink occupying a group's right hole is ordered immediately after that
// group, one occupying its left hole immediately before it. Keys are in
// half-position units to express "just before/after"; no two are equal.
func (en *Engine) buildItems(ord order.Order, G []int, groups []innerGroup) []item {
	type keyed struct {
		key float64
		it  item
	}
	items := make([]keyed, 0, len(G))
	for i := range groups {
		gr := &groups[i]
		items = append(items, keyed{key: float64(gr.r - gr.span + 1), it: item{group: gr, bbox: gr.bbox}})
	}
	for _, q := range G {
		key, covered := float64(q), false
		for _, gr := range groups {
			left := gr.r - gr.span + 1
			switch {
			case gr.e.HasRightBubble() && q == gr.r-1:
				key = float64(gr.r) + 0.5
			case gr.e.HasLeftBubble() && q == left+1:
				key = float64(left) - 0.5
			case left <= q && q <= gr.r: // a group holds its span less its holes
				covered = true
			}
		}
		if covered {
			continue
		}
		id := ord[q]
		pt := en.Net.Sinks[id].Pos
		items = append(items, keyed{key: key, it: item{sinkIdx: id, bbox: geom.Rect{Min: pt, Max: pt}}})
	}
	slices.SortFunc(items, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	out := make([]item, len(items))
	for i, kv := range items {
		out[i] = kv.it
	}
	return out
}

// starDP is *PTREE (§3.2.3): the P-Tree interval DP over the ordered item
// list, producing for every candidate p the non-inferior curve of buffered
// routings rooted at p that drive all items. The whole call and its runs of
// directly attached sinks are memoized across sub-problems and MERLIN
// iterations.
func (en *Engine) starDP(items []item) []*curve.Curve {
	cached, callKey := en.lookup(keyCall, items)
	if cached != nil {
		return cached
	}
	en.StarDPCalls++
	k := len(en.Cands)
	t := len(items)
	// tab[a*t+b][p]
	tab := make([][]*curve.Curve, t*t)

	for length := 1; length <= t; length++ {
		for a := 0; a+length-1 < t; a++ {
			b := a + length - 1
			idx := a*t + b
			pure := true
			for i := a; i <= b; i++ {
				if items[i].group != nil {
					pure = false
					break
				}
			}
			final := length == t
			runKey := "" // set when a pure run misses the memo
			if pure && !final {
				cached, key := en.lookup(keyRun, items[a:b+1])
				if cached != nil {
					tab[idx] = cached
					continue
				}
				runKey = key
			}
			mask := en.intervalMask(items[a : b+1])
			allowed := func(p int) bool { return mask == nil || mask[p] }
			// The interval's curves are built in scratch and stored below.
			cur := en.work
			reset(cur)
			if length == 1 {
				it := items[a]
				for p := 0; p < k; p++ {
					switch {
					case !allowed(p):
					case it.group != nil:
						if c := it.group.curves[p]; c != nil {
							cur[p].Sols = append(cur[p].Sols, c.Sols...)
						}
					default:
						cur[p].Sols = append(cur[p].Sols, en.leafSol(p, it.sinkIdx))
					}
				}
			} else {
				for p := 0; p < k; p++ {
					if !allowed(p) {
						continue
					}
					acc := &cur[p]
					for u := a; u < b; u++ {
						lc, rcv := tab[a*t+u][p], tab[(u+1)*t+b][p]
						if lc == nil || rcv == nil || lc.Empty() || rcv.Empty() {
							continue
						}
						ls, rs := summarize(lc.Sols), summarize(rcv.Sols)
						optReq := ls.maxReq
						if rs.maxReq < optReq {
							optReq = rs.maxReq
						}
						if acc.Dominated(ls.minLoad+rs.minLoad, optReq, ls.minArea+rs.minArea) {
							continue
						}
						for xi := range lc.Sols {
							x := &lc.Sols[xi]
							for yi := range rcv.Sols {
								y := &rcv.Sols[yi]
								req := x.Req
								if y.Req < req {
									req = y.Req
								}
								if acc.TryInsert(x.Load+y.Load, req, x.Area+y.Area) {
									acc.Sols[len(acc.Sols)-1].Ref = en.newRef(ref{kind: refJoin, point: int32(p), a: x.Ref, b: y.Ref})
								}
							}
						}
					}
					acc.Cap(en.Opts.MaxSols)
				}
			}
			// Per-interval pipeline: raw → buffer → transfer → buffer.
			// Buffering before the transfer lets "buffer at q, wire q→p"
			// structures migrate to p (a plain-wire detour is never useful —
			// Elmore is path-additive — but a buffered one often is); the
			// second pass lets a buffer at p drive the incoming wire. This
			// realizes the paper's mutual S/S_b recursion with buffers at
			// Steiner points to one relaxation depth per level.
			bufferPass := func() {
				for p := 0; p < k; p++ {
					if cur[p].Empty() {
						continue
					}
					en.addBufferedVariants(&cur[p], p)
					cur[p].Cap(en.Opts.MaxSols)
				}
			}
			if final || en.Opts.BufferAtSteiner {
				bufferPass()
			}
			en.transfer(cur, mask)
			if final || en.Opts.BufferAtSteiner {
				bufferPass()
			}
			if final && en.Opts.ForceGroupBuffers {
				for p := 0; p < k; p++ {
					en.keepBufferedRoots(&cur[p])
				}
			}
			tab[idx] = store(cur)
			if runKey != "" {
				en.memo[runKey] = tab[idx]
			}
		}
	}
	final := tab[0*t+t-1]
	en.memo[callKey] = final
	return final
}

// Memo key kinds: the first byte of every memo key.
const (
	keyGamma byte = iota // Γ of one sub-group
	keyCall              // one whole *PTREE call
	keyRun               // a non-final run of directly attached sinks
)

// sinkTag marks a directly attached sink in a memo key; a group is marked by
// its χ, which is below NumChi.
const sinkTag byte = 0xff

// memoKey encodes the content of a sub-problem into the engine's key buffer,
// valid until the next call: the kind byte, then each item in order. A sink
// is sinkTag and its net index; a group is its χ, its sink count and its net
// sinks in realized order. Numbers are 4-byte little-endian. A key parses
// back into its kind and items, so equal keys mean equal sub-problems, hence
// equal curves. A Γ key encodes the sub-group as a lone group item.
func (en *Engine) memoKey(kind byte, items []item) []byte {
	b := append(en.key[:0], kind)
	for i := range items {
		g := items[i].group
		if g == nil {
			b = append(b, sinkTag)
			b = binary.LittleEndian.AppendUint32(b, uint32(items[i].sinkIdx))
			continue
		}
		b = append(b, byte(g.e))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(g.ids)))
		for _, id := range g.ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
	}
	en.key = b
	return b
}

// lookup returns the curves memoized for a sub-problem and counts the hit.
// On a miss it returns nil and the key as a string, for the caller to store
// the curves under once built; a hit allocates nothing.
func (en *Engine) lookup(kind byte, items []item) ([]*curve.Curve, string) {
	b := en.memoKey(kind, items)
	if cs, ok := en.memo[string(b)]; ok {
		en.MemoHits++
		return cs, ""
	}
	return nil, string(b)
}

// lookupGamma is lookup for Γ of the sub-group with structure e over the net
// sinks ids.
func (en *Engine) lookupGamma(e Chi, ids []int) ([]*curve.Curve, string) {
	self := [1]item{{group: &innerGroup{e: e, ids: ids}}}
	return en.lookup(keyGamma, self[:])
}

// summary is the optimistic corner of a curve: the (min load, max req, min
// area) triple dominates every actual solution the curve holds, so if a
// target frontier dominates the summary (after any monotone op), the whole
// curve can be skipped. The DP hot loops use this to prune entire
// curve-to-curve combinations with one dominance test.
type summary struct {
	minLoad, maxReq, minArea float64
}

func summarize(sols []curve.Solution) summary {
	s := summary{minLoad: 1e300, maxReq: -1e300, minArea: 1e300}
	for i := range sols {
		t := &sols[i]
		if t.Load < s.minLoad {
			s.minLoad = t.Load
		}
		if t.Req > s.maxReq {
			s.maxReq = t.Req
		}
		if t.Area < s.minArea {
			s.minArea = t.Area
		}
	}
	return s
}

// keepBufferedRoots filters a curve to solutions whose structure root (via
// chains stripped) is a buffer, making the sub-group a true internal node.
func (en *Engine) keepBufferedRoots(c *curve.Curve) {
	out := c.Sols[:0]
	for _, s := range c.Sols {
		r := en.refs.at(s.Ref)
		for r.kind == refVia {
			r = en.refs.at(r.a)
		}
		if r.kind == refBuf {
			out = append(out, s)
		}
	}
	c.Sols = out
}

// transfer relaxes curves across candidate locations: a structure rooted at
// p′ may serve root p through a direct wire p→p′ (the S = min{d(p,p′)+S′}
// recursion). Opts.TransferHops sweeps are performed.
func (en *Engine) transfer(cur []curve.Curve, mask []bool) {
	k := len(en.Cands)
	for hop := 0; hop < en.Opts.TransferHops; hop++ {
		// Snapshot every source curve into one flat scratch buffer: inserts
		// rewrite curve backing arrays in place, so the sources must be
		// copied out before any target mutates.
		snap := en.snap[:0]
		for p := 0; p < k; p++ {
			en.snapOff[p] = len(snap)
			snap = append(snap, cur[p].Sols...)
		}
		en.snapOff[k] = len(snap)
		en.snap = snap
		sums := en.sums
		for q := 0; q < k; q++ {
			sums[q] = summarize(snap[en.snapOff[q]:en.snapOff[q+1]])
		}
		for p := 0; p < k; p++ {
			if mask != nil && !mask[p] {
				continue
			}
			acc := &cur[p]
			for q := 0; q < k; q++ {
				src := snap[en.snapOff[q]:en.snapOff[q+1]]
				if q == p || len(src) == 0 {
					continue
				}
				wl := en.dist[p][q]
				wc := en.Tech.WireC(wl)
				// Optimistic corner of everything q could deliver to p; if
				// it is already dominated, skip the whole source curve.
				if acc.Dominated(sums[q].minLoad+wc, sums[q].maxReq-en.Tech.WireElmore(wl, sums[q].minLoad), sums[q].minArea) {
					continue
				}
				for si := range src {
					s := &src[si]
					load := en.Tech.QuantizeLoad(s.Load + wc)
					req := s.Req - en.Tech.WireElmore(wl, s.Load)
					if acc.TryInsert(load, req, s.Area) {
						acc.Sols[len(acc.Sols)-1].Ref = en.newRef(ref{kind: refVia, point: int32(p), a: s.Ref})
					}
				}
			}
			acc.Cap(en.Opts.MaxSols)
		}
	}
}

// driver returns the gate model for the net source.
func (en *Engine) driver() rc.Gate {
	if en.Net.Driver.Name != "" {
		return en.Net.Driver
	}
	return en.Lib.Driver
}

// Extract picks the solution of the final curves that best satisfies the
// goal (Fig. 9 lines 21–22), accounting for the driver's load-dependent
// delay, and returns the solution together with its driver-input required
// time.
func (en *Engine) Extract(final []*curve.Curve, goal Goal) (curve.Solution, float64, error) {
	src := final[en.srcIdx]
	if src == nil || src.Empty() {
		return curve.Solution{}, 0, fmt.Errorf("core: no solution at source")
	}
	drv := en.driver()
	reqAt := func(s curve.Solution) float64 { return s.Req - drv.DelayNominal(en.Tech, s.Load) }
	var best curve.Solution
	found := false
	switch goal.Mode {
	case GoalMaxReq:
		for _, s := range src.Sols {
			if goal.AreaBudget > 0 && s.Area > goal.AreaBudget {
				continue
			}
			if !found || reqAt(s) > reqAt(best) || (reqAt(s) == reqAt(best) && s.Area < best.Area) {
				best, found = s, true
			}
		}
	case GoalMinArea:
		for _, s := range src.Sols {
			if reqAt(s) < goal.ReqFloor {
				continue
			}
			if !found || s.Area < best.Area || (s.Area == best.Area && reqAt(s) > reqAt(best)) {
				best, found = s, true
			}
		}
		if !found {
			// Infeasible floor: fall back to the max-req solution so callers
			// still get the closest structure; they can detect the shortfall.
			return en.Extract(final, Goal{Mode: GoalMaxReq})
		}
	}
	if !found {
		return curve.Solution{}, 0, fmt.Errorf("core: no solution satisfies the goal")
	}
	return best, reqAt(best), nil
}

// BuildTree reconstructs the buffered routing tree of a solution (Fig. 9
// line 22). The solution must come from curves this engine produced since
// its last Construct call: a Construct may compact the ref slab, which
// renumbers the refs of older solutions (see DESIGN.md §5). MerlinCtx keeps
// its Result's solution current for the whole search.
func (en *Engine) BuildTree(sol curve.Solution) (*tree.Tree, error) {
	t := tree.New(en.Net)
	if !en.refs.valid(sol.Ref) {
		return nil, fmt.Errorf("core: solution carries no reconstruction reference")
	}
	node := en.buildNode(sol.Ref)
	if node.Kind == tree.KindSteiner && node.Pos == en.Net.Source {
		t.Root.Children = node.Children
	} else {
		t.Root.AddChild(node)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	assertBuiltTree(t, en.Opts)
	return t, nil
}

// buildNode expands a ref into tree nodes; joins at the same point flatten
// into one Steiner/buffer node so child order (and hence the realized sink
// order) is preserved left to right.
func (en *Engine) buildNode(i int32) *tree.Node {
	r := *en.refs.at(i)
	switch r.kind {
	case refLeaf:
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		sk := en.Net.Sinks[r.idx]
		if n.Pos == sk.Pos {
			return &tree.Node{Kind: tree.KindSink, Pos: sk.Pos, SinkIdx: int(r.idx)}
		}
		n.AddChild(&tree.Node{Kind: tree.KindSink, Pos: sk.Pos, SinkIdx: int(r.idx)})
		return n
	case refBuf:
		n := &tree.Node{Kind: tree.KindBuffer, Pos: en.Cands[r.point], Buffer: en.Lib.Buffers[r.idx]}
		child := en.buildNode(r.a)
		if child.Kind == tree.KindSteiner && child.Pos == n.Pos {
			n.Children = child.Children
		} else {
			n.AddChild(child)
		}
		return n
	case refVia:
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		child := en.buildNode(r.a)
		if child.Kind == tree.KindSteiner && child.Pos == n.Pos {
			n.Children = child.Children
		} else {
			n.AddChild(child)
		}
		return n
	default: // refJoin
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		for _, part := range []int32{r.a, r.b} {
			sub := en.buildNode(part)
			if sub.Kind == tree.KindSteiner && sub.Pos == n.Pos {
				n.Children = append(n.Children, sub.Children...)
			} else {
				n.AddChild(sub)
			}
		}
		return n
	}
}
