package main

import (
	"math"
	"testing"
)

// op is a traced route of net taking 100 ms at the client (sorted as lat),
// whose backend
// route span leaves routeSelf ms uncovered and whose unnamed span takes
// other ms; the rest is the DP.
func op(net string, lat float64, routeSelf, other int64) tracedOp {
	const ms = 1_000_000
	return tracedOp{net: net, latMS: lat, spans: []span{
		{id: "c", name: "client.route", start: 0, end: 100 * ms},
		{id: "r", parent: "c", name: "route", start: 10 * ms, end: 90 * ms},
		{id: "d", parent: "r", name: "dp.construct", start: 10 * ms, end: (90 - routeSelf - other) * ms},
		{id: "x", parent: "r", name: "unlisted", start: (90 - other) * ms, end: 90 * ms},
	}}
}

// The blocking-path account separates the time the listed layers cover
// from the time no layer accounts for, and compares the layers' time with
// the same nets' untraced latency.
func TestBlockingPathAccount(t *testing.T) {
	plain := &phase{netLat: map[string]latSum{"a": {ms: 160, n: 2}, "b": {ms: 80, n: 1}}}
	// Of ten operations, the 5th to 7th fastest lie between the 40th and
	// 60th percentile; the others would count nothing as unattributed, and
	// their net z has no untraced latency to pair with.
	var ops []tracedOp
	for i, net := range []string{"z", "z", "z", "z", "a", "b", "c", "z", "z", "z"} {
		if net == "z" {
			ops = append(ops, op(net, float64(i), 0, 0))
		} else {
			ops = append(ops, op(net, float64(i), 2, 3))
		}
	}
	pa := blockingPath(plain, ops)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if pa.ops != 3 || pa.paired != 2 {
		t.Fatalf("band of %d ops, %d paired; want 3 and 2", pa.ops, pa.paired)
	}
	if !near(pa.unattributedPct, 5) {
		t.Errorf("unattributed = %v%%, want 5%% (2 ms of route self time and 3 ms unlisted, of 100 ms)", pa.unattributedPct)
	}
	if !near(pa.namedMS, 95) || !near(pa.self["self_ms.client"], 20) || !near(pa.self["self_ms.dp_construct"], 75) {
		t.Errorf("named %v ms, client %v ms, construct %v ms; want 95, 20, 75", pa.namedMS, pa.self["self_ms.client"], pa.self["self_ms.dp_construct"])
	}
	// Nets a and b, the only ones the untraced window routed, took 80 ms
	// each there; the layers cover 95 ms of each traced route.
	if !near(pa.gapPct, (95.0/80-1)*100) {
		t.Errorf("gap = %v%%, want %v%%", pa.gapPct, (95.0/80-1)*100)
	}
}
