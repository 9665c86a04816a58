// Fixture: allocation-free hot-loop idiom — capacity-hinted buffers,
// reslicing, plain struct values — plus an unregistered function that is
// free to allocate.
package curve

type pt struct{ x, y float64 }

func hotClean(xs []float64, n int) float64 {
	buf := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, float64(i)) // hinted: 3-index make above
	}
	out := xs[:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x) // hinted: reslice of xs's backing array
		}
	}
	var a pt // struct value: stack-allocated
	for _, x := range out {
		a.x += x
	}
	return a.x + buf[0] + pageOf(n).x + float64(len(keyOf(nil, 1, nil)))
}

// keyOf is reached from hotClean. Appending to a reslice reuses its backing
// array, so b keeps the reslice's hint and the loop append is clean.
func keyOf(buf []byte, kind byte, ids []int) []byte {
	b := append(buf[:0], kind)
	for _, id := range ids {
		b = append(b, byte(id))
	}
	return b
}

// pageOf is reached from hotClean, so the fence polices it; its allocation
// is deliberate and carries a reasoned allowance.
func pageOf(n int) *pt {
	return &pt{x: float64(n)} //lint:allow hotpath-alloc -- fixture: one allocation amortized over n solutions
}

// coldHelper is not in the registry: the fence does not police it.
func coldHelper() []int {
	return []int{1, 2, 3}
}
