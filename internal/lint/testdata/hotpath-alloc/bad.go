// Fixture: every allocation class the hot-path fence rejects, inside a
// function the test registers as hot.
package curve

import "fmt"

type pt struct{ x, y float64 }

func sink(any) {}

func hotKernel(pts []pt, n int) int {
	acc := 0
	for i := 0; i < n; i++ {
		s := []int{i}           // want hotpath-alloc
		m := make(map[int]bool) // want hotpath-alloc
		p := &pt{x: 1}          // want hotpath-alloc
		q := new(pt)            // want hotpath-alloc
		fmt.Sprintf("%d", i)    // want hotpath-alloc
		acc += len(s) + len(m) + int(p.x+q.y)
	}
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want hotpath-alloc
	}
	sink(acc) // want hotpath-alloc
	return acc + len(out) + scaled(n)
}

// scaled is not registered, but hotKernel calls it: the fence follows the
// static call and polices the helper's body as well.
func scaled(n int) int {
	p := &pt{x: float64(n)} // want hotpath-alloc
	return int(p.x)
}
