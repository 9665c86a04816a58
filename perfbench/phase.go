package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/net"
	"merlin/internal/service"
)

// phase is one closed-loop measurement window on one stack, and everything
// observed in it.
type phase struct {
	traced     bool
	start, end time.Time
	// ctx is canceled when the window closes. It carries no deadline: a
	// deadline would travel to the server as X-Merlin-Deadline-Ms and become
	// part of each request's budget.
	ctx  context.Context
	next atomic.Int64 // next input index, shared by the clients

	mu        sync.Mutex
	attempted int64
	failed    int64
	completed int64 // solves, routes or terminal jobs inside the window
	// lat holds the operations' latencies: per route, or per durable job
	// its turnaround, from its submission to the poll that saw it done.
	lat       []float64
	latAt     []float64          // when each latency sample was taken, in seconds from the start
	submitLat []float64          // acknowledgement latency of first job submissions
	nets      map[string]quality // distinct nets answered correctly
	netLat    map[string]latSum  // latency per distinct net, to pair two windows
	answers   int64              // answers received, right or wrong
	full      int64              // of those, served by the full tier
	wrong     []string
	failures  []string // the first few failure reasons, for the report
	respBytes []float64
	served    []*net.Net  // nets answered correctly, in order, for the replays
	solved    []solvedNet // nets the server solved in the window
	ops       []tracedOp  // traced phase: one per operation

	memMB     []float64 // the runtime's memory from the OS, sampled over the window
	gcCycles  uint32
	gcPauseMS float64
	trips     int64             // HTTP round trips to the router
	calls     int64             // client calls to the router
	backend   [2]*service.Stats // before and after the window
	router    [2]*service.Stats
}

// quality is the answer quality of one distinct net.
type quality struct {
	req, area       float64
	loops, frontier int
}

// latSum accumulates the latencies of one net's answers.
type latSum struct {
	ms float64
	n  int
}

func (l latSum) mean() float64 { return ratio(l.ms, float64(l.n)) }

// solvedNet is a net the server solved during the window, with its answer.
type solvedNet struct {
	net  *net.Net
	resp *service.RouteResponse
}

// tracedOp is one operation of a traced phase: its latency and its merged
// spans (the benchmark's own and the server's).
type tracedOp struct {
	net   string
	latMS float64
	spans []span
}

// maxServed bounds the list of served nets kept for the replays.
const maxServed = 4096

// fail records an operation that got no usable answer: a transport error,
// an error status, or a refusal (429/503) on the way to an answer.
func (ph *phase) fail(err error) {
	ph.mu.Lock()
	ph.attempted++
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, err.Error())
	}
	ph.mu.Unlock()
}

// answered records one answer. A wrong answer (werr != nil) is a failed
// operation and makes the run incorrect.
func (ph *phase) answered(n *net.Net, r *service.RouteResponse, werr error, lat time.Duration, bytes int64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.answerLocked(n, r, werr, bytes) {
		ms := float64(lat.Nanoseconds()) / 1e6
		ph.lat = append(ph.lat, ms)
		ph.latAt = append(ph.latAt, time.Since(ph.start).Seconds())
		l := ph.netLat[n.Name]
		ph.netLat[n.Name] = latSum{l.ms + ms, l.n + 1}
	}
}

// jobDone records the terminal answer of one durable job and its
// turnaround: from its submission to the poll that saw it terminal.
func (ph *phase) jobDone(n *net.Net, r *service.RouteResponse, werr error, bytes int64, turnaround time.Duration) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.answerLocked(n, r, werr, bytes) {
		ph.solved = append(ph.solved, solvedNet{n, r})
		ph.lat = append(ph.lat, float64(turnaround.Nanoseconds())/1e6)
		ph.latAt = append(ph.latAt, time.Since(ph.start).Seconds())
	}
}

// answerLocked counts one answer and reports whether it was right.
func (ph *phase) answerLocked(n *net.Net, r *service.RouteResponse, werr error, bytes int64) bool {
	ph.attempted++
	ph.answers++
	if r.Tier == "full" {
		ph.full++
	}
	if werr != nil {
		ph.failed++
		ph.wrong = append(ph.wrong, werr.Error())
		return false
	}
	ph.completed++
	if len(ph.served) < maxServed {
		ph.served = append(ph.served, n)
	}
	ph.respBytes = append(ph.respBytes, float64(bytes))
	ph.nets[n.Name] = quality{req: r.ReqAtDriverInputNS, area: r.BufferArea, loops: r.Loops, frontier: len(r.Frontier)}
	return true
}

// submitted records one job submission. A first submission's
// acknowledgement latency is kept, and the submission counts as an
// operation when its job ends. A resubmission is an operation of its own,
// right when it deduplicated to the original job (dup); its latency is not
// sampled, as it costs the server a lookup rather than a WAL accept.
func (ph *phase) submitted(latMS float64, resubmit, dup bool, werr error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if !resubmit {
		ph.submitLat = append(ph.submitLat, latMS)
		return
	}
	ph.attempted++
	if !dup {
		ph.failed++
		ph.wrong = append(ph.wrong, werr.Error())
	}
}

// wrongLater marks an answer that was counted as served but failed a check
// made after the window.
func (ph *phase) wrongLater(err error) {
	ph.mu.Lock()
	ph.failed++
	ph.wrong = append(ph.wrong, err.Error())
	ph.mu.Unlock()
}

func (ph *phase) solve(n *net.Net, r *service.RouteResponse) {
	ph.mu.Lock()
	ph.solved = append(ph.solved, solvedNet{n, r})
	ph.mu.Unlock()
}

func (ph *phase) addOp(op tracedOp) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, op)
	ph.mu.Unlock()
}

// outcome is the window's result line. Any failed operation — a refusal, a
// transport or status error, or a wrong answer — makes the run incorrect: a
// change that starts shedding load must not pass on the operations it still
// serves.
func (ph *phase) outcome() *result {
	return &result{Correct: len(ph.wrong) == 0 && ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed}
}

// latencyFigures returns the workload's throughput, median latency and tail
// latency, the tail at the workload's percentile; a tail without enough
// samples beyond it is an error, not a number.
func (ph *phase) latencyFigures(w *workload) (ops, p50, tail float64, name string, err error) {
	ops = ph.opsPerSec()
	tail, ok := percentile(ph.lat, w.tailQ)
	name = fmt.Sprintf("p%g", w.tailQ*100)
	if w.tailStretch > 0 && ok {
		pooled := tail
		tail, ok = stretchPercentile(ph.lat, ph.latAt, w.tailQ, w.tailStretch.Seconds(), ph.end.Sub(ph.start).Seconds())
		name = fmt.Sprintf("median of the %s stretches' p%g; over the whole window %.3f ms", w.tailStretch, w.tailQ*100, pooled)
	}
	if !ok {
		return 0, 0, 0, name, fmt.Errorf("%s: %d latency samples are too few for a %s", w.name, len(ph.lat), name)
	}
	return ops, median(ph.lat), tail, name, nil
}

// opsPerSec is the number of operations completed in the window per second.
func (ph *phase) opsPerSec() float64 {
	return float64(ph.completed) / ph.end.Sub(ph.start).Seconds()
}

// qualityMeans is the mean required time and buffer area over the distinct
// nets answered.
func (ph *phase) qualityMeans() (req, area float64) {
	for _, q := range ph.nets {
		req += q.req
		area += q.area
	}
	n := float64(len(ph.nets))
	return ratio(req, n), ratio(area, n)
}

// measure runs one closed-loop window of the workload on st with one
// goroutine per client, and snapshots the counters the per-layer metrics
// need around it.
func (b *bench) measure(st *stack, state any, traced bool) (*phase, error) {
	ph := &phase{traced: traced, nets: make(map[string]quality), netLat: make(map[string]latSum)}
	users := make([]*user, b.w.clients)
	for i := range users {
		users[i] = newUser(i, st)
	}
	probe := newUser(len(users), st) // reads /v1/stats, so the users' counts stay theirs
	defer func() {
		for _, u := range append(users, probe) {
			u.closeIdle()
		}
	}()
	var err error
	if ph.backend[0], ph.router[0], err = snapshot(probe); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var cancel context.CancelFunc
	ph.ctx, cancel = context.WithCancel(context.Background())
	window := time.Duration(b.opts.seconds) * time.Second
	ph.start = time.Now()
	ph.end = ph.start.Add(window)
	timer := time.AfterFunc(window, cancel)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.memMB = sampleMemory(ph.ctx)
	}()
	for _, u := range users {
		wg.Add(1)
		go func(u *user) {
			defer wg.Done()
			b.w.loop(b, state, u, ph)
		}(u)
	}
	wg.Wait()
	timer.Stop()
	cancel()
	runtime.ReadMemStats(&m1)
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	for _, u := range users {
		ph.trips += u.tr.trips.Load()
		ph.calls += u.calls.Load()
	}
	// Counters are read before the checks below add requests of their own.
	if ph.backend[1], ph.router[1], err = snapshot(probe); err != nil {
		return nil, err
	}
	if b.w.after != nil {
		if err := b.w.after(b, st, ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// forEach calls fn(i) for every i in [0, n) from workers goroutines and
// returns the errors joined; a worker stops at its first error.
func forEach(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[w] = fn(i); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// memSampleEvery is the memory sampling period.
const memSampleEvery = 50 * time.Millisecond

// peakStretch is the stretch of the window whose peak memory peak_mem_mb
// takes the median of. The peak of a whole run swings with which engines
// the service's caches happen to hold at once and when the collector runs;
// the median over five stretches of a 25 s window keeps what a run
// typically peaks at.
const peakStretch = 5 * time.Second

// sampleMemory samples, until ctx is done, the memory the Go runtime holds
// from the operating system: everything it has mapped minus the heap it has
// released. That is the process's resident memory less pages the kernel has
// not faulted in, read without a system call.
func sampleMemory(ctx context.Context) []float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	var out []float64
	tick := time.NewTicker(memSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		out = append(out, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/(1<<20))
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
	}
}

// snapshot reads /v1/stats from the backend and from the router.
func snapshot(u *user) (*service.Stats, *service.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bs, err := u.back.Stats(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("backend stats: %w", err)
	}
	rs, err := u.front.Stats(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("router stats: %w", err)
	}
	return bs, rs, nil
}
