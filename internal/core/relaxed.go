package core

import (
	"merlin/internal/curve"
	"merlin/internal/order"
)

// This file implements the relaxation §3.2.1 sketches after Definition 2:
// "Cα_Trees can be relaxed with respect to the first property ... each
// internal node may have more than one internal node (but bounded by a
// certain parameter) among its immediate children. Although the optimal
// structure can still be achieved using dynamic programming, the complexity
// of the corresponding optimal construction algorithm grows significantly."
//
// With Options.MaxInternalChildren = 2 the construction additionally
// enumerates pairs of disjoint inner sub-groups per sub-problem, so internal
// nodes may branch into two chains (the hierarchy becomes a bounded-degree
// tree of buffers instead of Lemma 2's single chain). The quadratic blow-up
// in the inner enumeration is exactly the cost the paper warns about; the
// ablation bench measures it.

// enumeratePairs adds to the Γ accumulator, for one (L, E, R) sub-problem,
// every construction using TWO disjoint inner sub-groups. Called only when
// Options.MaxInternalChildren >= 2.
func (en *Engine) enumeratePairs(ord order.Order, G []int, L, R, span int, gam func(l int, e Chi, r int) []*curve.Curve) {
	cands := en.innerGroups(ord, G, R, span, 1, L-2, gam)
	var pair [2]innerGroup
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			a, b := &cands[i], &cands[j]
			// Spans must be disjoint (holes live inside spans, so this also
			// keeps bubble-out targets unambiguous).
			aLeft, bLeft := a.r-a.span+1, b.r-b.span+1
			if a.r >= bLeft && b.r >= aLeft {
				continue
			}
			// Fanout: direct sinks + two group children ≤ α.
			t := L - len(a.ids) - len(b.ids) + 2
			if t > en.Opts.Alpha || t < 2 {
				continue
			}
			// Groups must cover disjoint sinks (spans disjoint ⇒ true) and
			// both fit in G (innerGroups checked it). buildItems orders them.
			pair[0], pair[1] = *a, *b
			en.accumulate(en.starDP(en.buildItems(ord, G, pair[:])))
		}
	}
}
