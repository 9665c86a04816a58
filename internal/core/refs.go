package core

import (
	"math"

	"merlin/internal/curve"
)

// refKind discriminates ref shapes.
type refKind int8

const (
	refLeaf refKind = iota // direct wire from point to sink
	refJoin                // two sub-structures joined at point (a=left, b=right)
	refVia                 // wire from point to a's point
	refBuf                 // buffer gate at point driving a
)

// ref is one back-pointer record (line 22 of BUBBLE_CONSTRUCT): the last
// step of a structure plus the slab indices of the sub-structures it was
// built from. It holds no pointers, so a slab of them costs the collector
// nothing to scan.
type ref struct {
	kind  refKind
	point int32 // candidate index the structure is rooted at
	idx   int32 // refLeaf: net sink index; refBuf: Lib.Buffers index
	a, b  int32 // sub-structure refs (refJoin: both; refVia, refBuf: a)
}

// Slab pages hold a fixed number of refs. Growing by whole pages never
// copies existing records; a single doubling slice would copy the whole slab
// at every growth, which measured slower than a heap object per ref.
const (
	refPageShift = 11
	refPageSize  = 1 << refPageShift
	refPageMask  = refPageSize - 1
)

// refSlab is the engine's ref store: curve.Solution.Ref indexes it. Index 0
// is reserved as "no ref", so the zero Solution carries none. A ref is
// always allocated after the refs it points to, so children have smaller
// indices than their parents; marking and compaction both rely on that.
type refSlab struct {
	pages [][]ref
	n     int32 // records in use, including the reserved record 0
	live  int32 // live records found by the last compaction
}

// newRef appends r to the slab and returns its index. Refs live in the slab,
// not in one heap object each, because per-solution objects would be most of
// the DP's allocations and of the collector's scan work. An append-only arena
// would pin every pruned solution's ref for the engine's lifetime, a leak on
// big nets; compactRefs reclaims those refs instead.
func (en *Engine) newRef(r ref) int32 {
	s := &en.refs
	i := s.n
	if int(i>>refPageShift) == len(s.pages) {
		if int64(i)+refPageSize > math.MaxInt32 {
			// More refs than an int32 indexes; contained by recoverToErr.
			panic("core: ref slab exhausted") //lint:allow nopanic -- unreachable under any solution budget, contained by recoverToErr at the engine boundary
		}
		s.pages = append(s.pages, make([]ref, refPageSize))
	}
	s.pages[i>>refPageShift][i&refPageMask] = r
	s.n++
	return i
}

// at returns the record at index i.
func (s *refSlab) at(i int32) *ref { return &s.pages[i>>refPageShift][i&refPageMask] }

// valid reports whether i names an allocated record.
func (s *refSlab) valid(i int32) bool { return i > 0 && i < s.n }

// maybeCompactRefs runs compactRefs at a Construct boundary when the slab
// holds more than twice the live count of the previous pass. Live refs only
// grow (the memo is never evicted), so between passes the slab
// stays within twice the live set plus one partly filled page, and each
// pass's O(slab) cost is paid for by the refs allocated since the last one.
func (en *Engine) maybeCompactRefs() {
	if int(en.refs.n) > 2*int(en.refs.live) {
		en.compactRefs()
	}
}

// compactRefs is a mark-compact pass over the slab. The roots are every
// solution in the memo plus the caller's pinned best-so-far
// solution (MerlinCtx's Result.Solution); everything else — refs of pruned
// solutions and of non-memoized DP table cells — is dead once a Construct
// has returned. Live records slide down in index order, so children stay
// below parents, and every root Ref is rewritten to its new index in place.
func (en *Engine) compactRefs() {
	s := &en.refs
	fwd := en.markRefs()
	w := int32(1)
	for i := int32(1); i < s.n; i++ {
		if fwd[i] == 0 {
			continue
		}
		r := *s.at(i)
		r.a, r.b = fwd[r.a], fwd[r.b]
		*s.at(w) = r
		fwd[i] = w
		w++
	}
	// Two idempotent passes rewrite the roots, so a curve reachable from
	// more than one root is still forwarded exactly once: the first marks
	// forwarded Refs by complementing them (negative), the second restores.
	en.eachRoot(func(r *int32) {
		if *r > 0 {
			*r = ^fwd[*r]
		}
	})
	en.eachRoot(func(r *int32) {
		if *r < 0 {
			*r = ^*r
		}
	})
	s.n, s.live = w, w
	keep := int(w+refPageMask) >> refPageShift
	clear(s.pages[keep:])
	s.pages = s.pages[:keep]
}

// markRefs returns the slab's mark array, which compactRefs turns into its
// forwarding table: 0 = dead, -1 = marked (later, > 0 = new index). fwd[0]
// stays 0, mapping "no ref" to itself.
func (en *Engine) markRefs() []int32 {
	s := &en.refs
	fwd := make([]int32, s.n)
	en.eachRoot(func(r *int32) {
		if *r > 0 {
			fwd[*r] = -1
		}
	})
	// Children precede parents, so one descending sweep marks everything
	// reachable from the roots.
	for i := s.n - 1; i > 0; i-- {
		if fwd[i] == 0 {
			continue
		}
		if r := s.at(i); r.kind != refLeaf {
			fwd[r.a] = -1
			if r.kind == refJoin {
				fwd[r.b] = -1
			}
		}
	}
	return fwd
}

// eachRoot calls fn on the Ref of every solution the slab must keep alive.
func (en *Engine) eachRoot(fn func(*int32)) {
	for _, cs := range en.memo {
		for _, c := range cs {
			if c == nil {
				continue
			}
			for i := range c.Sols {
				fn(&c.Sols[i].Ref)
			}
		}
	}
	if en.pinned != nil {
		fn(&en.pinned.Ref)
	}
}

// pin makes sol a compaction root until the returned func is called, so a
// best-so-far solution held across Construct calls keeps a valid Ref.
func (en *Engine) pin(sol *curve.Solution) func() {
	en.pinned = sol
	return func() { en.pinned = nil }
}
