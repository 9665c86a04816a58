package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"merlin/internal/core"
	"merlin/internal/flows"
	"merlin/internal/net"
	"merlin/internal/service"
	"merlin/internal/trace"
)

// serviceMaxSolutions is service.Config's documented default solution
// budget, which every request of the workloads runs under.
const serviceMaxSolutions = 4_000_000

// coreStats are the internal/core, internal/curve and internal/order figures
// of an in-process replay of Flow III on the program's own engine.
type coreStats struct {
	nets, constructs           int
	constructMS, allocs, bytes float64 // per Engine.ConstructCtx
	solutions                  float64 // Engine.BudgetUsed per net
	newEngineMS, tspMS         float64 // per net
	extractMS, buildMS         float64 // per loop; extractMS includes the tree rebuild
	mismatch                   []string
}

// replayCore re-solves served nets, one at a time on an otherwise idle
// stack, as Flow III does: flows.NewEngineIII, then Engine.MerlinCtx under a
// trace of the benchmark's own, whose dp.order, dp.construct and dp.extract
// spans time the TSP order, each ConstructCtx and each Extract with its tree
// rebuild. Allocations are counted around MerlinCtx and shared out over its
// loops. Each replay must reproduce the served answer's loop count and tree
// quality. It stops after budget.
func replayCore(solved []solvedNet, budget time.Duration) coreStats {
	var cs coreStats
	stop := time.Now().Add(budget)
	for _, s := range solved {
		if time.Now().After(stop) {
			break
		}
		if err := replayOne(&cs, s); err != nil {
			cs.mismatch = append(cs.mismatch, fmt.Sprintf("net %s: in-process replay: %v", s.net.Name, err))
		}
	}
	perNet := func(v float64) float64 { return ratio(v, float64(cs.nets)) }
	perConstruct := func(v float64) float64 { return ratio(v, float64(cs.constructs)) }
	cs.constructMS, cs.allocs, cs.bytes = perConstruct(cs.constructMS), perConstruct(cs.allocs), perConstruct(cs.bytes)
	cs.extractMS, cs.buildMS = perConstruct(cs.extractMS), perConstruct(cs.buildMS)
	cs.solutions, cs.newEngineMS, cs.tspMS = perNet(cs.solutions), perNet(cs.newEngineMS), perNet(cs.tspMS)
	return cs
}

// replayOne adds one net's replay to cs's running sums.
func replayOne(cs *coreStats, s solvedNet) error {
	n := s.net
	p := flows.ProfileFor(n.N())
	t := time.Now()
	en := flows.NewEngineIII(n, p)
	newEngine := sinceMS(t)
	// The options flows.RunFlowIIIOn sets, under the service's default budget.
	en.Opts.Goal, en.Opts.MaxLoops = p.Core.Goal, p.Core.MaxLoops
	en.Opts.Budget = core.Budget{MaxSolutions: serviceMaxSolutions}

	tr, root := trace.NewTrace("perfbench.replay")
	ctx := trace.ContextWith(context.Background(), tr, root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := en.MerlinCtx(ctx, nil)
	runtime.ReadMemStats(&m1)
	root.End()
	if err != nil {
		return err
	}
	used := en.BudgetUsed()
	// BuildTree runs inside dp.extract; it is timed on its own here, on the
	// best solution, against the same engine.
	t = time.Now()
	if _, err := en.BuildTree(res.Solution); err != nil {
		return err
	}
	build := sinceMS(t)

	spans := traceSpans(tr)
	self := selfTimes(spans)
	var constructMS, extractMS, tspMS float64
	constructs := 0
	for _, sp := range spans {
		ms := float64(self[sp.id]) / 1e6
		switch sp.name {
		case "dp.construct":
			constructMS += ms
			constructs++
		case "dp.extract":
			extractMS += ms
		case "dp.order":
			tspMS += ms
		}
	}
	ev := res.Tree.Evaluate(p.Tech, p.Lib.Driver)
	if res.Loops != s.resp.Loops || constructs != res.Loops || ev.ReqAtDriverInput != s.resp.ReqAtDriverInputNS || res.Tree.NumBuffers() != s.resp.NumBuffers {
		return fmt.Errorf("%d loops (%d dp.construct spans), req %v, %d buffers; served %d loops, req %v, %d buffers",
			res.Loops, constructs, ev.ReqAtDriverInput, res.Tree.NumBuffers(), s.resp.Loops, s.resp.ReqAtDriverInputNS, s.resp.NumBuffers)
	}
	cs.nets++
	cs.constructs += res.Loops
	cs.constructMS += constructMS
	cs.allocs += float64(m1.Mallocs - m0.Mallocs)
	cs.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	cs.extractMS += extractMS
	cs.buildMS += build * float64(res.Loops)
	cs.solutions += float64(used)
	cs.newEngineMS += newEngine
	cs.tspMS += tspMS
	return nil
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// hopReplays is how many served requests the hop replay re-sends on each
// path: enough for a 99th percentile with ten samples beyond it.
const hopReplays = 1000

// hopStats are the latencies of the same served requests sent three ways.
type hopStats struct {
	viaP50, viaP99       float64 // through merlinrouter
	directP50, directP99 float64 // straight to merlind's HTTP API
	inprocP50            float64 // in-process Server.Route
}

// replayHop re-sends served requests (answered from the server's caches by
// now) through the router, directly to the backend and in process,
// rotating which path goes first, so the router's hop is the difference of
// two latency distributions over the same requests.
func replayHop(st *stack, served []*net.Net) (hopStats, error) {
	var hs hopStats
	if len(served) == 0 {
		return hs, nil
	}
	u := newUser(0, st)
	defer u.closeIdle()
	ctx := context.Background()
	var via, direct, inproc []float64
	paths := []func(*service.RouteRequest) (*[]float64, error){
		func(r *service.RouteRequest) (*[]float64, error) { _, err := u.front.Route(ctx, r); return &via, err },
		func(r *service.RouteRequest) (*[]float64, error) { _, err := u.back.Route(ctx, r); return &direct, err },
		func(r *service.RouteRequest) (*[]float64, error) { _, err := st.srv.Route(ctx, r); return &inproc, err },
	}
	for k := 0; k < hopReplays; k++ {
		req := &service.RouteRequest{Net: served[k%len(served)]}
		for j := range paths {
			t := time.Now()
			dst, err := paths[(k+j)%len(paths)](req)
			if err != nil {
				return hs, fmt.Errorf("hop replay: %w", err)
			}
			*dst = append(*dst, sinceMS(t))
		}
	}
	hs.viaP50, hs.directP50, hs.inprocP50 = median(via), median(direct), median(inproc)
	hs.viaP99, _ = percentile(via, 0.99)
	hs.directP99, _ = percentile(direct, 0.99)
	return hs, nil
}

// canonMicros is the mean time of one net.AppendCanonical call over the
// served nets (the router and the backend each run it once per request).
func canonMicros(served []*net.Net) float64 {
	if len(served) == 0 {
		return 0
	}
	const reps = 200
	nets := served[:min(len(served), 256)]
	buf := make([]byte, 0, 1024)
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, n := range nets {
			buf = n.AppendCanonical(buf[:0])
		}
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(reps*len(nets))
}

// appendSamples is how many jobs the traced durable-jobs run submits in
// process under a trace of its own, to read the journal's spans.
const appendSamples = 64

// journalSpans submits appendSamples fresh jobs through Server.SubmitJob
// with a trace in the context, which the journal records its append (with
// the fsync inside it) under, and returns the mean self time of
// journal.append and the mean journal.fsync time, in milliseconds.
func journalSpans(b *bench, st *stack) (appendMS, fsyncMS float64, err error) {
	var appends, fsyncs []float64
	for k := 0; k < appendSamples; k++ {
		i := 1<<30 + k // far beyond any index a window reaches
		tr, root := trace.NewTrace("perfbench.submit")
		ctx := trace.ContextWith(context.Background(), tr, root)
		_, _, err := st.srv.SubmitJob(ctx, &service.RouteRequest{Net: jobNet(b.opts.seed, i)},
			fmt.Sprintf("perfbench-append-%d-%d", b.opts.seed, i))
		root.End()
		if err != nil {
			return 0, 0, fmt.Errorf("in-process submit: %w", err)
		}
		spans := traceSpans(tr)
		self := selfTimes(spans)
		for _, s := range spans {
			switch s.name {
			case "journal.append":
				appends = append(appends, float64(self[s.id])/1e6)
			case "journal.fsync":
				fsyncs = append(fsyncs, float64(s.end-s.start)/1e6)
			}
		}
	}
	return mean(appends), mean(fsyncs), nil
}

// traceSpans returns the spans an in-process trace recorded.
func traceSpans(tr *trace.Trace) []span {
	var spans []span
	for _, s := range tr.Snapshot().Spans {
		spans = append(spans, span{id: s.SpanID, parent: s.ParentID, name: s.Name, start: s.StartUnixNano, end: s.EndUnixNano})
	}
	return spans
}
