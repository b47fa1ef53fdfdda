package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"iatf"
	"iatf/internal/obs"
)

// smallAsync is the open-loop workload of small requests through the
// async queue of an EngineSet: queue wait, EDF order, fusion, scatter,
// plan lookup and shard routing are a large share of each request, the
// kernels a small one.
type smallAsync struct {
	cfg   config
	set   *iatf.EngineSet
	specs []spec
	pools []chan *slot
	plans spanLog // spans of the first calls, traced runs only
	// spans collects per-request spans of the open loop, traced runs only.
	spans *spanLog

	mu         sync.Mutex
	firstWrong error // the first output that differed from the oracle
}

// slot is one request's private operands. A slot serves one request at a
// time; slots of an identity share its read-only inputs.
type slot struct {
	x    instance
	uses int
	// verify says whether the next use is checked; for in-place routines
	// its input was snapshotted when the slot was released.
	verify bool
	rng    *rand.Rand
}

const (
	// asyncRate is the open loop's arrival rate, about an eighth of the
	// workload's peak_rps on a 2-core Xeon: about a third of the requests
	// wait in the 2 ms window, no backlog builds, and the tail stays
	// steady (at 2500 req/s the p99 doubled from run to run).
	asyncRate = 1000.0
	// slotsPerIdentity bounds the requests of one identity in flight;
	// beyond it an arrival waits for a slot (and the wait counts).
	slotsPerIdentity  = 32
	asyncWindow       = 2 * time.Millisecond
	asyncRTDeadline   = 50 * time.Millisecond
	asyncBulkDeadline = 500 * time.Millisecond
)

func newSmallAsync(cfg config) workload { return &smallAsync{cfg: cfg} }

// asyncSpecs: f32/f64 GEMM and TRSM, sizes 4–12, counts 16–128. The TRSM
// slots alternate TRSM and TRMM with the same A, so a reused B stays
// bounded.
func asyncSpecs() []spec {
	return []spec{
		{kind: kGEMM, n: 4, count: 128},
		{kind: kGEMM, f64: true, n: 8, count: 64},
		{kind: kGEMM, transB: iatf.Transpose, n: 12, count: 32},
		{kind: kGEMM, f64: true, n: 12, count: 128},
		{kind: kTRSM, n: 8, count: 128, alternate: true},
		{kind: kTRSM, f64: true, n: 4, count: 16, alternate: true},
	}
}

func (w *smallAsync) generate() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.specs = asyncSpecs()
	slots := slotsPerIdentity
	if w.cfg.small || w.cfg.setupOnly {
		slots = 4
	}
	for i, s := range w.specs {
		pool := make(chan *slot, slots)
		var first instance
		for k := 0; k < slots; k++ {
			x := build(s, rng, first)
			if first == nil {
				first = x
			}
			pool <- &slot{x: x, rng: rand.New(rand.NewSource(w.cfg.seed + int64(1000*i+k)))}
		}
		w.pools = append(w.pools, pool)
	}
	return nil
}

func tenants(rtDeadline, bulkDeadline time.Duration) map[string]iatf.TenantObjective {
	return map[string]iatf.TenantObjective{
		"rt":    {Class: rtClass, Objective: rtDeadline, Target: 0.99},
		"batch": {Class: bulkClass, Objective: bulkDeadline, Target: 0.9},
	}
}

func (w *smallAsync) start() error {
	w.set = iatf.NewEngineSet(runtime.GOMAXPROCS(0),
		iatf.WithEDF(true), iatf.WithBatchWindow(asyncWindow))
	w.set.SetTenants(tenants(asyncRTDeadline, asyncBulkDeadline))
	for id := range w.specs {
		s := <-w.pools[id]
		s.verify = true
		s.x.snapshot()
		var sink *spanLog
		if w.cfg.trace {
			sink = &w.plans
		}
		o := w.call(context.Background(), s, false, sink)
		w.release(id, s)
		if o.kind != okOnTime {
			if err := w.mismatch(); err != nil {
				return err
			}
			return fmt.Errorf("%s: first request failed (outcome %d)", s.x.spec().name(), o.kind)
		}
	}
	return nil
}

func (w *smallAsync) mismatch() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstWrong == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errMismatch, w.firstWrong)
}

func (w *smallAsync) release(id int, s *slot) {
	s.uses++
	s.verify = s.rng.Intn(verifyEvery) == 0
	if s.verify {
		s.x.snapshot()
	}
	w.pools[id] <- s
}

// call submits one request on slot s and waits for it, then checks the
// result if the slot says so. ctx carries the request's deadline.
func (w *smallAsync) call(ctx context.Context, s *slot, rt bool, spans *spanLog) outcome {
	s.x.prepare(s.uses)
	tenant, class := tenantOf(rt)
	opts := []iatf.Option{iatf.WithEngineSet(w.set), iatf.WithPriority(class), iatf.WithTenant(tenant)}
	if spans != nil {
		opts = append(opts, spans.sink())
	}
	fut, err := s.x.submit(ctx, opts)
	if err == nil {
		if err = fut.Wait(ctx); err != nil {
			// The slot's operands are free only once the request ends.
			<-fut.Done()
		}
	}
	o := outcome{flops: s.x.spec().flops()}
	switch {
	case err == nil:
		if s.verify {
			if cerr := s.x.check(); cerr != nil {
				w.mu.Lock()
				if w.firstWrong == nil {
					w.firstWrong = cerr
				}
				w.mu.Unlock()
				o.kind = wrong
			}
		}
	case errors.Is(err, iatf.ErrQueueFull):
		o.kind = queueFull
	case errors.Is(err, context.DeadlineExceeded):
		o.kind = expired
	default:
		o.kind = errored
	}
	return o
}

func deadlineOf(rt bool, rtDL, bulkDL time.Duration) time.Duration {
	if rt {
		return rtDL
	}
	return bulkDL
}

// request is one open-loop or closed-loop request of identity id.
func (w *smallAsync) request(id int, rt bool, due time.Time, withDeadline bool, spans *spanLog) outcome {
	ctx := context.Background()
	dl := deadlineOf(rt, asyncRTDeadline, asyncBulkDeadline)
	if withDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, due.Add(dl))
		defer cancel()
	}
	s := <-w.pools[id]
	o := w.call(ctx, s, rt, spans)
	o.lat = time.Since(due)
	w.release(id, s)
	if o.kind == okOnTime && withDeadline && o.lat > dl {
		o.kind = okLate
	}
	return o
}

func (w *smallAsync) measure(r *result) error {
	var c counters
	var rt runtimeStats
	var st0 iatf.EngineStats
	var rt0 runtimeStats
	if w.cfg.trace {
		w.spans = &spanLog{}
	}
	run := runOpen(w.cfg, openTarget{
		rate:        asyncRate,
		openShare:   0.6,
		identities:  len(w.specs),
		peakCallers: runtime.GOMAXPROCS(0),
		open: func(_ int, a arrival, due time.Time) outcome {
			return w.request(a.id, a.rt, due, true, w.spans)
		},
		closed: func(id int, _ *rand.Rand) outcome {
			return w.request(id, false, time.Now(), false, nil)
		},
		segment: func(start bool) {
			if !w.cfg.trace {
				return
			}
			if start {
				st0, rt0 = w.set.Stats().Aggregate, readRuntime()
				return
			}
			c.add(st0, w.set.Stats().Aggregate)
			rt.add(rt0, readRuntime())
		},
	})
	st := run.results(r)
	r.note("peak_callers", runtime.GOMAXPROCS(0))
	r.note("rate_rps", asyncRate)
	if w.cfg.trace {
		engineLayer(r, &c, st.attempts, w.spans)
		r.set("engine.plan_build_ms_total", ms(w.plans.phaseTotal(obs.PhasePlan)), "ms")
		goLayer(r, rt, st.attempts)
		var xs []instance
		for _, p := range w.pools {
			s := <-p
			xs = append(xs, s.x)
			p <- s
		}
		layoutLayer(r, xs)
		if err := serveLayer(w.cfg, r); err != nil {
			return err
		}
	}
	return w.mismatch()
}

// serveProbeSeconds is the length of the http-json run a traced
// small-async run makes for the serve layer.
const serveProbeSeconds = 4

// serveLayer measures the serve layer for a traced run: a short traced
// http-json run (a serve.Server over loopback HTTP, at that workload's
// settings) whose serve.* metrics join r. http-json is not a declared
// workload of its own: its saturation throughput and tail latency moved
// by up to half from run to run on a 2-core host.
func serveLayer(cfg config, r *result) error {
	sub := cfg
	if !cfg.small {
		sub.seconds = serveProbeSeconds
	}
	w := newHTTPJSON(sub)
	defer w.close()
	if err := w.generate(); err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return fmt.Errorf("http-json: %w", err)
	}
	sr := &result{Metrics: map[string]metric{}}
	if err := w.measure(sr); err != nil {
		return fmt.Errorf("http-json: %w", err)
	}
	for name, m := range sr.Metrics {
		if strings.HasPrefix(name, "serve.") {
			r.Metrics[name] = m
		}
	}
	r.note("serve_probe_requests", sr.Attempted)
	return nil
}

func (w *smallAsync) close() {}
