package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"merlin/internal/net"
	"merlin/internal/service"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// names are the workload's own names for ops_per_s, op_ms_p50 and
	// op_ms_tail.
	names [3]string
	// tailQ is the tail percentile op_ms_tail reports.
	tailQ float64
	// tailStretch, when set, makes op_ms_tail the median over the window's
	// stretches of this length of each stretch's tail percentile.
	tailStretch time.Duration
	// clients is the number of closed-loop client goroutines, at most
	// nproc. The whole stack shares the CPUs with them; on two CPUs two
	// clients of cold-solve ran two solves at once that slowed each other
	// down by a third and by a different share from one minute to the next.
	clients int
	// workers is merlind's worker pool size, 0 for the shipped default
	// (GOMAXPROCS).
	workers int
	// prepare readies a freshly booted stack; it is part of set-up.
	prepare func(b *bench, st *stack) (any, error)
	// loop is one client's closed loop until the window ends.
	loop func(b *bench, state any, u *user, ph *phase)
	// after runs once the window has closed, outside the measured time.
	after func(b *bench, st *stack, ph *phase) error
}

var workloads = map[string]*workload{
	"cold-solve": {
		name:    "cold-solve",
		names:   [3]string{"solve_per_s", "solve_ms_p50", "solve_ms_p90"},
		tailQ:   0.90,
		clients: 1,
		prepare: func(*bench, *stack) (any, error) { return nil, nil },
		loop:    coldLoop,
	},
	"warm-route": {
		name:  "warm-route",
		names: [3]string{"route_per_s", "route_ms_p50", "route_ms_p99"},
		tailQ: 0.99,
		// The p99 of 100,000 reads a window rests on the window's slowest
		// second or so, where a stall of the VM lands: in five seeds one
		// run's p99 over the whole window lay a third above the others',
		// and a rerun of that seed matched them. The median of five
		// stretches' p99s does not follow a stall in one of them.
		tailStretch: peakStretch,
		clients:     2,
		prepare:     prepareHotSet,
		loop:        warmLoop,
	},
	"durable-jobs": {
		name:  "durable-jobs",
		names: [3]string{"jobs_per_s", "job_ms_p50", "job_ms_p90"},
		tailQ: 0.90,
		// Latency is a job's turnaround, what an async caller waits for.
		// The acknowledgement of a submission, about a millisecond, moved
		// twice as much as throughput with the VM's speed (its median
		// spread by 0.35 of itself over ten seeds, against 0.15 for
		// jobs_per_s); it is a per-layer metric.
		clients: 1,
		// One worker leaves a CPU of two to the HTTP path and the journal,
		// which is what this workload measures. With the shipped GOMAXPROCS
		// workers both CPUs run the DP, and an acknowledgement waited for
		// the Go scheduler to preempt a worker (up to 10 ms) rather than for
		// its WAL append: its median moved between 1 and 13 ms from run to
		// run.
		workers: 1,
		prepare: func(*bench, *stack) (any, error) { return nil, nil },
		loop:    jobsLoop,
		after:   verifyJobs,
	},
}

// workersName describes w's merlind worker count.
func (w *workload) workersName() string {
	if w.workers == 0 {
		return "GOMAXPROCS"
	}
	return fmt.Sprint(w.workers)
}

// route sends one /v1/route through the router and records the answer;
// check judges a received answer. It reports false once the window has
// closed.
func route(u *user, ph *phase, n *net.Net, check func(*service.RouteResponse) error) bool {
	refused, nbytes := u.tr.refused.Load(), u.tr.bytes.Load()
	u.calls.Add(1)
	t0 := time.Now()
	resp, err := u.front.Route(ph.ctx, &service.RouteRequest{Net: n})
	t1 := time.Now()
	if t1.After(ph.end) {
		return false // still running when the window closed: not attempted
	}
	switch {
	case err != nil:
		ph.fail(fmt.Errorf("net %s: %w", n.Name, err))
		return true
	case u.tr.refused.Load() != refused:
		ph.fail(fmt.Errorf("net %s: refused (429/503) before it was served", n.Name))
		return true
	}
	werr := check(resp)
	ph.answered(n, resp, werr, t1.Sub(t0), u.tr.bytes.Load()-nbytes)
	if werr == nil && !resp.Cached {
		ph.solve(n, resp)
	}
	if ph.traced {
		traceOp(u, ph, n.Name, "client.route", t0, t1, resp.TraceID)
	}
	return true
}

// coldLoop requests distinct nets, each once, in the order of the seeded
// sequence. Each answer must be a valid full-tier tree, and for the default
// seed its quality must equal the pinned digest.
func coldLoop(b *bench, _ any, u *user, ph *phase) {
	for {
		i := int(ph.next.Add(1) - 1)
		n := coldNet(b.opts.seed, i)
		ok := route(u, ph, n, func(r *service.RouteResponse) error {
			if err := checkAnswer(n, r); err != nil {
				return err
			}
			if b.opts.seed == defaultSeed && i < len(golden) && digestOf(n, r) != golden[i] {
				return fmt.Errorf("net %s: quality %+v differs from the pinned %+v", n.Name, digestOf(n, r), golden[i])
			}
			return nil
		})
		if !ok {
			return
		}
	}
}

// hotSet is warm-route's prepared state: the hot nets, the answer a direct
// in-process Server.Route gave for each, and the popularity ranking.
type hotSet struct {
	nets []*net.Net
	ref  [][]byte
	rank []int
}

// prepareHotSet solves every hot net with a direct in-process Server.Route
// (nproc at a time), which warms the result cache and the disk store and
// records the reference answer each read is checked against.
func prepareHotSet(b *bench, st *stack) (any, error) {
	hs := &hotSet{
		nets: make([]*net.Net, hotSetSize),
		ref:  make([][]byte, hotSetSize),
		rank: hotRanking(b.opts.seed, hotSetSize),
	}
	err := forEach(b.par, hotSetSize, func(i int) error {
		n := hotNet(b.opts.seed, i)
		r, err := st.srv.Route(context.Background(), &service.RouteRequest{Net: n})
		if err == nil {
			err = checkAnswer(n, r)
		}
		if err != nil {
			return fmt.Errorf("warm-route set-up: %w", err)
		}
		hs.nets[i], hs.ref[i] = n, answerBytes(r)
		return nil
	})
	return hs, err
}

// warmLoop reads the hot set with Zipf-skewed popularity. Each answer must
// equal the direct Server.Route answer recorded at set-up.
func warmLoop(b *bench, state any, u *user, ph *phase) {
	hs := state.(*hotSet)
	z := newZipf(mix(b.opts.seed, streamZipf, uint64(u.id)), hotSetSize, zipfS)
	for {
		i := hs.rank[z.next()]
		n := hs.nets[i]
		ok := route(u, ph, n, func(r *service.RouteResponse) error {
			if b := answerBytes(r); b == nil || !bytes.Equal(b, hs.ref[i]) {
				return fmt.Errorf("net %s: answer differs from the direct Server.Route answer", n.Name)
			}
			return nil
		})
		if !ok {
			return
		}
	}
}

const (
	// jobsAhead is how many jobs the durable-jobs client keeps submitted
	// and unfinished, so the worker never waits on a client's poll: one
	// running and two queued, which the 4×workers queue holds without a
	// queue-full retry. A job takes about 40 ms, so two queued outlast the
	// poll interval.
	jobsAhead = 3
	// resubmitShare is the share of submissions that resend an earlier job
	// with its Idempotency-Key and must deduplicate to it: the retry of a
	// flow that lost an acknowledgement or restarted, about a hundred per
	// window.
	resubmitShare = 0.1
	// pollEvery spaces a client's poll sweeps when none of its jobs has
	// finished.
	pollEvery = 20 * time.Millisecond
)

type pendingJob struct {
	id   string
	idem string
	net  *net.Net
	sent time.Time // when the first submission was sent
}

// jobsLoop submits distinct 4-sink jobs ahead, each with its own
// Idempotency-Key, resubmits a seeded share of earlier ones (which must
// return the original job), and polls its unfinished jobs until they are
// terminal. A job counts when it is done within the window with a valid
// full-tier answer; verifyJobs then compares the answers with direct
// Server.Route answers.
func jobsLoop(b *bench, _ any, u *user, ph *phase) {
	ctx := ph.ctx
	rng := rand.New(rand.NewSource(mix(b.opts.seed, streamResubmit, uint64(u.id))))
	var pending, history []pendingJob
	for ctx.Err() == nil {
		for len(pending) < jobsAhead && ctx.Err() == nil {
			j := pendingJob{}
			resubmit := len(history) > 0 && rng.Float64() < resubmitShare
			if resubmit {
				j = history[rng.Intn(len(history))]
			} else {
				i := int(ph.next.Add(1) - 1)
				j = pendingJob{idem: fmt.Sprintf("perfbench-%d-%d", b.opts.seed, i), net: jobNet(b.opts.seed, i)}
			}
			refused := u.tr.refused.Load()
			u.calls.Add(1)
			t0 := time.Now()
			st, err := u.front.SubmitJob(ctx, &service.RouteRequest{Net: j.net}, j.idem)
			t1 := time.Now()
			if t1.After(ph.end) {
				if err == nil && !resubmit {
					pending = append(pending, pendingJob{id: st.ID, idem: j.idem, net: j.net})
				}
				break
			}
			switch {
			case err != nil:
				ph.fail(fmt.Errorf("submit %s: %w", j.idem, err))
				continue
			case u.tr.refused.Load() != refused:
				ph.fail(fmt.Errorf("submit %s: refused (429/503) before it was accepted", j.idem))
				continue
			}
			ph.submitted(float64(t1.Sub(t0).Nanoseconds())/1e6, resubmit, st.ID == j.id,
				fmt.Errorf("resubmit %s: got job %s, want %s", j.idem, st.ID, j.id))
			if !resubmit {
				j.id, j.sent = st.ID, t0
				pending = append(pending, j)
				history = append(history, j)
			}
		}
		pending = pollJobs(ctx, u, ph, pending, true)
		if len(pending) == jobsAhead {
			waitCtx(ctx, pollEvery)
		}
	}
	// Let the jobs still running finish uncounted, so the journal counters
	// read after the window cover whole jobs only.
	for giveUp := time.Now().Add(time.Minute); len(pending) > 0 && time.Now().Before(giveUp); {
		pending = pollJobs(context.Background(), u, ph, pending, false)
		time.Sleep(pollEvery)
	}
}

// pollJobs polls each pending job once and returns those not yet terminal.
// With count set, terminal jobs are recorded as finished in the window.
func pollJobs(ctx context.Context, u *user, ph *phase, pending []pendingJob, count bool) []pendingJob {
	left := pending[:0]
	for _, j := range pending {
		nbytes := u.tr.bytes.Load()
		u.calls.Add(1)
		st, err := u.front.JobStatus(ctx, j.id)
		if ctx.Err() != nil {
			return append(left, j)
		}
		if err != nil {
			if count {
				ph.fail(fmt.Errorf("poll %s: %w", j.id, err))
			}
			continue
		}
		if !service.JobState(st.State).Terminal() {
			left = append(left, j)
			continue
		}
		if !count {
			continue
		}
		if st.Result == nil {
			ph.fail(fmt.Errorf("job %s (%s) ended %s: %s", j.id, j.net.Name, st.State, st.Error))
			continue
		}
		werr := checkAnswer(j.net, st.Result)
		if werr == nil && service.JobState(st.State) != service.JobDone {
			werr = fmt.Errorf("job %s ended %s", j.id, st.State)
		}
		ph.jobDone(j.net, st.Result, werr, u.tr.bytes.Load()-nbytes, time.Since(j.sent))
		if ph.traced && st.Result.TraceID != "" {
			traceOp(u, ph, j.net.Name, "", time.Time{}, time.Time{}, st.Result.TraceID)
		}
	}
	return left
}

// recomputeSample is how many job answers verifyJobs also recomputes.
const recomputeSample = 64

// verifyJobs compares every job answer of the window with the answer a
// direct in-process Server.Route gives for the same net — served from the
// result cache or disk store the job's own run filled, so this checks the
// journal, store and poll path end to end — and, for a seeded sample, with a
// direct Server.Route computed afresh with no_cache, nproc at a time.
// Recomputing every answer would double the run's compute.
func verifyJobs(b *bench, st *stack, ph *phase) error {
	fresh := map[int]bool{}
	rng := rand.New(rand.NewSource(mix(b.opts.seed, streamVerify, 0)))
	for _, i := range rng.Perm(len(ph.solved))[:min(recomputeSample, len(ph.solved))] {
		fresh[i] = true
	}
	return forEach(b.par, len(ph.solved), func(i int) error {
		s := ph.solved[i]
		for _, noCache := range []bool{false, true} {
			if noCache && !fresh[i] {
				break
			}
			r, err := st.srv.Route(context.Background(), &service.RouteRequest{Net: s.net, NoCache: noCache})
			switch {
			case err != nil:
				ph.wrongLater(fmt.Errorf("net %s: direct Server.Route: %w", s.net.Name, err))
			case !sameAnswer(r, s.resp):
				ph.wrongLater(fmt.Errorf("net %s: job answer differs from the direct Server.Route answer (no_cache %v)", s.net.Name, noCache))
			}
		}
		return nil
	})
}
