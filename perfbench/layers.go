package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"
)

// selfLayers maps the span names of a merged trace to the self-time metric
// they report under. The benchmark's client span covers what lies outside
// the backend's Route: the client, both HTTP hops, the router and JSON.
var selfLayers = map[string]string{
	"client.route":    "self_ms.client",
	"route":           "self_ms.service_route",
	"cache.lookup":    "self_ms.cache_lookup",
	"queue.wait":      "self_ms.queue_wait",
	"rung.full":       "self_ms.rung_full",
	"dp.order":        "self_ms.dp_order",
	"dp.construct":    "self_ms.dp_construct",
	"dp.extract":      "self_ms.dp_extract",
	"journal.persist": "self_ms.journal_persist",
}

const selfOther = "self_ms.other"

// unattributed are the self-time metrics no layer accounts for: spans of no
// listed layer, and the part of the backend's route span that none of the
// server's spans under it covers.
var unattributed = map[string]bool{selfOther: true, "self_ms.service_route": true}

// maxUnattributedPct bounds, on cold-solve, the share of the blocking path
// around the median that no layer accounts for. Above it the per-layer
// self times no longer explain solve_ms_p50 and the traced run fails.
const maxUnattributedPct = 5

// traceOp fetches the server's spans of one operation on net by trace id,
// straight from the backend that retains them, and records them under the
// benchmark's own span named client over [t0, t1]. Without a client span
// (an async job's run) the server's root stands alone and its duration is
// the operation's latency. A trace the ring no longer holds is skipped.
func traceOp(u *user, ph *phase, net, client string, t0, t1 time.Time, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tj, err := u.back.Trace(ctx, id)
	if err != nil {
		return
	}
	op := tracedOp{net: net}
	root := ""
	if client != "" {
		root = "perfbench/" + id
		op.spans = append(op.spans, span{id: root, name: client, start: t0.UnixNano(), end: t1.UnixNano()})
		op.latMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	}
	for _, s := range tj.Spans {
		if s.EndUnixNano == 0 {
			continue // still open: it cannot be timed
		}
		sp := span{id: id + "/" + s.SpanID, parent: root, name: s.Name, start: s.StartUnixNano, end: s.EndUnixNano, attrs: s.Attrs}
		if s.ParentID != "" {
			sp.parent = id + "/" + s.ParentID
		} else if client == "" {
			op.latMS = float64(s.EndUnixNano-s.StartUnixNano) / 1e6
		}
		op.spans = append(op.spans, sp)
	}
	ph.addOp(op)
}

// traced makes the traced run: an untraced window and a traced window on
// fresh stacks over the same inputs, then the replays, and returns the
// per-layer metrics. Counter ratios come from the untraced window, span
// figures from the traced one. A failed operation, a replay that does not
// reproduce its served answer, or a cold-solve blocking path the layers do
// not account for makes the run incorrect.
func (b *bench) traced() (*result, error) {
	st, state, _, err := b.boot()
	if err != nil {
		return nil, err
	}
	plain, err := b.measure(st, state, false)
	st.close()
	if err != nil {
		return nil, err
	}
	// Hand the first window's heap back to the OS, so the traced window
	// faults its memory in afresh as the untraced one did.
	debug.FreeOSMemory()
	if st, state, _, err = b.boot(); err != nil {
		return nil, err
	}
	defer st.close()
	tr, err := b.measure(st, state, true)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	plainOps, plainP50, tracedOps := plain.opsPerSec(), median(plain.lat), tr.opsPerSec()
	overhead := tracingOverhead(plain, tr)
	put("trace.overhead_pct", overhead, "%")

	// Self time per layer along the blocking path of the traced operations
	// around the median latency, and the check that the layers account for
	// it.
	path := blockingPath(plain, tr.ops)
	for _, name := range selfMetricNames() {
		put(name, path.self[name], "ms")
	}
	put("trace.path_sum_ms", path.namedMS, "ms")
	put("trace.path_gap_pct", path.gapPct, "%")
	put("trace.unattributed_pct", path.unattributedPct, "%")
	var pathWrong []string
	if b.w.name == "cold-solve" && (path.ops == 0 || path.unattributedPct > maxUnattributedPct) {
		pathWrong = append(pathWrong, fmt.Sprintf("blocking path: %.2f%% of the %d traced operations around the median lies in no layer (at most %d%%)",
			path.unattributedPct, path.ops, maxUnattributedPct))
	}

	// Spans of the traced window.
	var queue, rung, storeRead []float64
	constructs := 0
	for _, op := range tr.ops {
		for _, s := range op.spans {
			d := float64(s.end-s.start) / 1e6
			switch s.name {
			case "queue.wait":
				queue = append(queue, d)
			case "rung.full":
				rung = append(rung, d)
			case "dp.construct":
				constructs++
			case "cache.lookup":
				if s.attrs["result"] == "store_warm" {
					storeRead = append(storeRead, d)
				}
			}
		}
	}
	put("core.construct_calls", float64(constructs), "count")
	put("service.queue_wait_ms_p50", median(queue), "ms")
	put("service.queue_wait_ms_p90", tailOrNone(queue, 0.9), "ms")
	put("degrade.rung_full_ms", mean(rung), "ms")
	put("journal.store_read_ms", mean(storeRead), "ms")

	// Answers of the untraced window.
	var loops, frontier float64
	for _, q := range plain.nets {
		loops += float64(q.loops)
		frontier += float64(q.frontier)
	}
	put("core.loops", ratio(loops, float64(len(plain.nets))), "count")
	put("curve.frontier_len", ratio(frontier, float64(len(plain.nets))), "count")
	put("degrade.full_tier_share", ratio(float64(plain.full), float64(plain.answers)), "ratio")
	put("service.response_bytes", mean(plain.respBytes), "bytes")
	put("service.submit_ms_p50", median(plain.submitLat), "ms")
	put("service.submit_ms_p90", tailOrNone(plain.submitLat, 0.9), "ms")
	put("client.retries", float64(plain.trips-plain.calls), "count")
	put("runtime.gc_cycles", float64(plain.gcCycles), "count")
	put("runtime.gc_pause_ms", plain.gcPauseMS, "ms")
	put("runtime.mem_mb_p90", tailOrNone(plain.memMB, 0.9), "MB")
	put("runtime.peak_rss_mb", peakRSSMB(), "MB")

	// /v1/stats deltas of the untraced window.
	d := func(name string) float64 {
		return float64(plain.backend[1].Counters[name] - plain.backend[0].Counters[name])
	}
	lookups := d("cache.hits") + d("cache.store_warms") + d("cache.misses")
	put("service.cache_hit_ratio", ratio(d("cache.hits"), lookups), "ratio")
	put("service.store_warm_ratio", ratio(d("cache.store_warms"), lookups), "ratio")
	put("service.engine_cache_hit_ratio", ratio(d("engine_cache.hits"), d("engine_cache.hits")+d("engine_cache.misses")), "ratio")
	rd := func(name string) float64 {
		return float64(plain.router[1].Counters[name] - plain.router[0].Counters[name])
	}
	put("qos.rejects", rd("qos.denied_rate")+rd("qos.denied_concurrency"), "count")
	jobs := d("jobs.submitted")
	d0, d1 := plain.backend[0].Durability, plain.backend[1].Durability
	put("journal.appends_per_job", ratio(float64(d1.JournalAppends-d0.JournalAppends), jobs), "count")
	put("journal.fsyncs_per_job", ratio(float64(d1.JournalFsyncs-d0.JournalFsyncs), jobs), "count")
	put("journal.store_writes_per_job", ratio(float64(d1.StoreWrites-d0.StoreWrites), jobs), "count")

	// Replays on the traced window's stack, now idle.
	hop, err := replayHop(st, tr.served)
	if err != nil {
		return nil, err
	}
	put("router.hop_ms_p50", hop.viaP50-hop.directP50, "ms")
	put("router.hop_ms_p99", hop.viaP99-hop.directP99, "ms")
	put("service.route_direct_ms_p50", hop.inprocP50, "ms")
	put("net.canon_us", canonMicros(tr.served), "us")
	appendMS, fsyncMS := 0.0, 0.0
	if b.w.name == "durable-jobs" {
		if appendMS, fsyncMS, err = journalSpans(b, st); err != nil {
			return nil, err
		}
	}
	put("journal.append_ms", appendMS, "ms")
	put("journal.fsync_ms", fsyncMS, "ms")
	cs := replayCore(tr.solved, time.Duration(b.opts.seconds)*time.Second/4)
	put("core.construct_ms", cs.constructMS, "ms")
	put("core.construct_allocs", cs.allocs, "count")
	put("core.construct_bytes", cs.bytes, "bytes")
	put("core.solutions_charged", cs.solutions, "count")
	put("core.new_engine_ms", cs.newEngineMS, "ms")
	put("core.extract_ms", cs.extractMS, "ms")
	put("core.build_tree_ms", cs.buildMS, "ms")
	put("order.tsp_ms", cs.tspMS, "ms")

	res := &result{
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed + int64(len(cs.mismatch)),
		Metrics:   m,
	}
	wrong := append(append(append(plain.wrong, tr.wrong...), cs.mismatch...), pathWrong...)
	res.Correct = len(wrong) == 0 && res.Failed == 0

	fmt.Printf("  untraced %.3f ops/s, p50 %.3f ms; traced %.3f ops/s, %d traced ops\n", plainOps, plainP50, tracedOps, len(tr.ops))
	fmt.Printf("  blocking path of the %d traced operations around the median: %.3f ms in the layers, %.2f%% in none (cold-solve allows %d%%)\n",
		path.ops, path.namedMS, path.unattributedPct, maxUnattributedPct)
	if path.paired > 0 {
		fmt.Printf("  the layers' time on the %d traced operations the untraced window paired by net is %+.2f%% off those nets' untraced latency; tracing overhead %+.2f%%\n",
			path.paired, path.gapPct, overhead)
	}
	fmt.Printf("  router hop p50 is %.3f%% of the untraced op_ms_p50; %d dp.construct spans; full-tier share %.3f\n",
		ratio(hop.viaP50-hop.directP50, plainP50)*100, constructs, m["degrade.full_tier_share"].Value)
	fmt.Printf("  core replay: %d nets, %d constructs\n", cs.nets, cs.constructs)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, f := range append(plain.failures, tr.failures...) {
		fmt.Println("  FAILED:", f)
	}
	for _, w := range wrong {
		fmt.Println("  WRONG:", w)
	}
	return res, nil
}

// selfMetricNames lists the self-time metrics in a fixed order.
func selfMetricNames() []string {
	names := []string{selfOther}
	for _, n := range selfLayers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pathAccount is the blocking path of the traced operations whose latency
// lies between the 40th and 60th percentile, and how the listed layers'
// time compares with the untraced window.
type pathAccount struct {
	ops             int
	self            map[string]float64 // mean self time per layer metric over the band, ms
	namedMS         float64            // mean self time the listed layers account for over the band, ms
	unattributedPct float64            // share of the band's time in no layer
	// paired is how many traced operations the untraced window also timed
	// (routes of the same net); gapPct is how far the listed layers' time on
	// all of those lies from the same nets' untraced latency, in percent.
	paired int
	gapPct float64
}

// blockingPath accounts the traced operations: over those around the median
// latency, the self time per layer and how much of it no layer accounts
// for; over every operation whose net the untraced window plain also
// routed, how the layers' time compares with those nets' untraced latency.
// The self times of an operation always sum to its latency, so the gap is
// the tracing overhead less the unattributed share. The comparison spans
// all paired operations, not the band: choosing operations by their traced
// latency would bias it wherever latency varies more between requests than
// between nets.
func blockingPath(plain *phase, ops []tracedOp) pathAccount {
	pa := pathAccount{self: make(map[string]float64)}
	if len(ops) == 0 {
		return pa
	}
	sorted := append([]tracedOp(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].latMS < sorted[j].latMS })
	lo, hi := len(sorted)*40/100, min(len(sorted)*60/100+1, len(sorted))
	var total, none, pairedNamed, pairedPlain float64
	for i, op := range sorted {
		inBand := i >= lo && i < hi
		named := 0.0
		for name, ms := range opSelf(op) {
			if !unattributed[name] {
				named += ms
			}
			if !inBand {
				continue
			}
			pa.self[name] += ms
			total += ms
			if unattributed[name] {
				none += ms
			}
		}
		if inBand {
			pa.namedMS += named
		}
		if l, ok := plain.netLat[op.net]; ok {
			pa.paired++
			pairedNamed += named
			pairedPlain += l.mean()
		}
	}
	pa.ops = hi - lo
	for k := range pa.self {
		pa.self[k] /= float64(pa.ops)
	}
	pa.namedMS /= float64(pa.ops)
	pa.unattributedPct = ratio(none, total) * 100
	if pa.paired > 0 {
		pa.gapPct = (ratio(pairedNamed, pairedPlain) - 1) * 100
	}
	return pa
}

// opSelf is one operation's self time per layer metric, in milliseconds.
func opSelf(op tracedOp) map[string]float64 {
	out := make(map[string]float64)
	st := selfTimes(op.spans)
	for _, s := range op.spans {
		name, ok := selfLayers[s.name]
		if !ok {
			name = selfOther
		}
		out[name] += float64(st[s.id]) / 1e6
	}
	return out
}

// tracingOverhead is how much slower the traced window ran than the
// untraced one, in percent. Both windows run the same inputs, so where the
// operations are routes it pairs them by net and compares the summed mean
// latency of the nets both windows answered, the pairing the blocking-path
// gap uses. Jobs have
// no client-side latency per net, so for them it compares throughput.
func tracingOverhead(plain, tr *phase) float64 {
	var a, b float64
	for name, l := range tr.netLat {
		if p, ok := plain.netLat[name]; ok {
			a += p.mean()
			b += l.mean()
		}
	}
	if a == 0 {
		a, b = tr.opsPerSec(), plain.opsPerSec()
	}
	return (ratio(b, a) - 1) * 100
}
