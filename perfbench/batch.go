package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"iatf"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// batchSync is the closed-loop, one-caller workload of synchronous
// Do/Chain calls on large compact batches: kernels, pack and core do
// nearly all the work; the queue, fusion and the HTTP tier do none.
type batchSync struct {
	cfg   config
	eng   *iatf.Engine
	xs    []instance
	calls []int // calls made per instance, for the invalidation cadence
	// order and verify draw the round order and the verified calls.
	order, verify *rand.Rand
	plans         spanLog // spans of the first calls, traced runs only
}

// Batch counts: batchMid keeps an identity's operands within a 2 MiB L2
// (d 16×16: 3 × 256 × 2 KiB = 1.5 MiB); batchBig is far beyond it
// (d 16×16: 24 MiB).
const (
	batchMid = 256
	batchBig = 4096
	// verifyEvery: about one call in verifyEvery is checked after it
	// returns, outside its timing.
	verifyEvery = 32
)

func newBatchSync(cfg config) workload { return &batchSync{cfg: cfg} }

// batchSpecs lists the identities: s/d GEMM NN and NT at 4/8/12/16 on
// mid counts, s/d GEMM NN at 8/16 on big counts, d TRSM/TRMM/SYRK at 4/8
// on both, and a d Cholesky→TRSM→TRSM chain. Every other identity (the
// TRSM/TRMM pair counting once) prepacks its A.
func batchSpecs(small bool) []spec {
	mid, big := batchMid, batchBig
	if small {
		mid, big = 8, 16
	}
	var out []spec
	pre := false
	add := func(s spec) {
		if s.kind != kTRMM {
			pre = !pre
		}
		s.prepack = pre && s.kind != kChain
		out = append(out, s)
	}
	for _, f64 := range []bool{false, true} {
		for _, tb := range []iatf.Trans{iatf.NoTrans, iatf.Transpose} {
			for _, n := range []int{4, 8, 12, 16} {
				add(spec{kind: kGEMM, f64: f64, transB: tb, n: n, count: mid})
			}
		}
		for _, n := range []int{8, 16} {
			add(spec{kind: kGEMM, f64: f64, n: n, count: big})
		}
	}
	for _, count := range []int{mid, big} {
		for _, n := range []int{4, 8} {
			add(spec{kind: kTRSM, f64: true, n: n, count: count})
			add(spec{kind: kTRMM, f64: true, n: n, count: count})
			add(spec{kind: kSYRK, f64: true, n: n, count: count})
		}
	}
	add(spec{kind: kChain, f64: true, n: 8, count: mid})
	return out
}

func (w *batchSync) generate() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	var prev instance
	for _, s := range batchSpecs(w.cfg.small) {
		var share instance
		if s.kind == kTRMM {
			share = prev // the TRSM of the same size: one A, one B
		}
		x := build(s, rng, share)
		w.xs = append(w.xs, x)
		prev = x
	}
	w.calls = make([]int, len(w.xs))
	w.order = rand.New(rand.NewSource(w.cfg.seed + 1))
	w.verify = rand.New(rand.NewSource(w.cfg.seed + 2))
	return nil
}

func (w *batchSync) start() error {
	w.eng = iatf.NewEngine()
	opts := []iatf.Option{iatf.WithEngine(w.eng)}
	if w.cfg.trace {
		opts = append(opts, w.plans.sink())
	}
	for k, x := range w.xs {
		x.prepare(0)
		x.snapshot()
		if err := x.run(context.Background(), opts); err != nil {
			return fmt.Errorf("%s: %w", x.spec().name(), err)
		}
		w.calls[k] = 1
		if err := x.check(); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return nil
}

// phaseStats is what the rounds at one worker count measured.
type phaseStats struct {
	samples              []sample
	rates, callRates     []float64 // per round: GFLOP/s and calls/s of call time
	flops                float64
	calls, failed, wrong int64
	firstErr             error
}

// round calls every identity once, in a seeded order, and adds what it
// measured to p. at is the round's start relative to the window.
func (w *batchSync) round(p *phaseStats, workers int, at time.Duration, spans *spanLog) {
	opts := []iatf.Option{iatf.WithEngine(w.eng), iatf.WithWorkers(workers)}
	if spans != nil {
		opts = append(opts, spans.sink())
	}
	ctx := context.Background()
	var flops float64
	var busy time.Duration
	start := time.Now()
	for _, k := range w.order.Perm(len(w.xs)) {
		x := w.xs[k]
		x.prepare(w.calls[k])
		w.calls[k]++
		check := w.verify.Intn(verifyEvery) == 0
		if check {
			x.snapshot()
		}
		t0 := time.Now()
		err := x.run(ctx, opts)
		lat := time.Since(t0)
		p.calls++
		busy += lat
		p.samples = append(p.samples, sample{at: at + t0.Sub(start), lat: lat})
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("%s: %w", x.spec().name(), err)
			}
			continue
		}
		flops += x.spec().flops()
		if check {
			if err := x.check(); err != nil {
				p.wrong++
				p.firstErr = err
			}
		}
	}
	p.flops += flops
	p.rates = append(p.rates, flops/busy.Seconds()/1e9)
	p.callRates = append(p.callRates, float64(len(w.xs))/busy.Seconds())
}

func (w *batchSync) measure(r *result) error {
	nproc := runtime.GOMAXPROCS(0)
	window := time.Duration(w.cfg.seconds * float64(time.Second))
	// One untimed round at each worker count: the worker pool spins up
	// and every plan is cached.
	w.round(&phaseStats{}, 1, 0, nil)
	w.round(&phaseStats{}, nproc, 0, nil)

	var spans1 *spanLog // spans of the workers = 1 rounds, traced runs only
	if w.cfg.trace {
		spans1 = &spanLog{}
	}
	// Rounds alternate between one worker and nproc workers, so noise
	// from the rest of the host falls on both alike.
	one, all := &phaseStats{}, &phaseStats{}
	heap := startHeapSampler()
	rt0, st0 := readRuntime(), w.eng.Stats()
	var nt counters // the workers = nproc rounds alone
	start := time.Now()
	for k := 0; k < 2 || time.Since(start) < window; k++ {
		at := time.Since(start)
		if k%2 == 0 {
			w.round(one, 1, at, spans1)
			continue
		}
		var before iatf.EngineStats
		if w.cfg.trace {
			before = w.eng.Stats()
		}
		w.round(all, nproc, at, nil)
		if w.cfg.trace {
			after := w.eng.Stats()
			nt.add(before, after)
		}
	}
	rt1, st1 := readRuntime(), w.eng.Stats()
	heapMB := heap.peakMB()

	calls := one.calls + all.calls
	failed := one.failed + all.failed + one.wrong + all.wrong
	r.Attempted, r.Failed = calls, failed
	r.set("gflops_1t", median(one.rates), "GFLOP/s")
	r.set("gflops_nt", median(all.rates), "GFLOP/s")
	r.setLatency(summarize(one.samples, window))
	r.set("peak_rps", median(all.callRates), "1/s")
	miss := ratio(float64(failed), float64(calls))
	r.set("slo_attain_ratio", 1-miss, "ratio")
	r.note("slo_miss_ratio", miss)
	r.set("heap_peak_mb", heapMB, "MiB")
	r.note("rounds_1t", len(one.rates))
	r.note("rounds_nt", len(all.rates))
	r.note("workers_nt", nproc)

	if w.cfg.trace {
		var c counters
		c.add(st0, st1)
		if err := w.layers(r, &c, &nt, spans1, one, all, nproc); err != nil {
			return err
		}
		var rt runtimeStats
		rt.add(rt0, rt1)
		goLayer(r, rt, calls)
	}
	for _, p := range []*phaseStats{one, all} {
		if p.wrong > 0 {
			return fmt.Errorf("%w: %v", errMismatch, p.firstErr)
		}
		if p.firstErr != nil {
			r.note("first_error", p.firstErr.Error())
		}
	}
	return nil
}

func (w *batchSync) layers(r *result, c, nt *counters, spans1 *spanLog, one, all *phaseStats, nproc int) error {
	engineLayer(r, c, one.calls+all.calls, spans1)
	// The worker-pool metrics describe the workers = nproc rounds.
	r.set("sched.parallel_ratio", ratio(fl(nt.parallel), fl(nt.parallel+nt.inlineCalls)), "ratio")
	r.set("sched.overflow_runs", fl(nt.overflow), "count")
	r.set("sched.scaling_eff", median(all.rates)/(float64(nproc)*median(one.rates)), "ratio")
	r.set("core.compute_gflops", one.flops/spans1.phaseTotal(obs.PhaseCompute).Seconds()/1e9, "GFLOP/s")
	r.set("engine.plan_build_ms_total", ms(w.plans.phaseTotal(obs.PhasePlan)), "ms")

	// Direct core calls on the dominant shapes: the 16×16 big batches.
	n, count := 16, batchBig
	if w.cfg.small {
		count = 16
	}
	fs, ns, ps, err := coreProbe[float32](vec.S, n, count, w.cfg.seed, probeBudget)
	if err != nil {
		return err
	}
	fd, nd, pd, err := coreProbe[float64](vec.D, n, count, w.cfg.seed, probeBudget)
	if err != nil {
		return err
	}
	r.set("core.exec_gflops", (fs+fd)/(ns+nd).Seconds()/1e9, "GFLOP/s")
	r.set("pack.share", 1-float64(ps+pd)/float64(ns+nd), "ratio")
	gemm, tri, fpb := kernelProbe(probeBudget)
	r.set("kernels.gemm_gflops", gemm, "GFLOP/s")
	r.set("kernels.tri_gflops", tri, "GFLOP/s")
	r.set("kernels.flops_per_byte", fpb, "FLOP/B")
	layoutLayer(r, w.xs)
	return nil
}

// layoutLayer sets the layout metrics from the Pack calls that built the
// instances and one Unpack of each instance's written operand.
func layoutLayer(r *result, xs []instance) {
	var packs, unpacks []time.Duration
	for _, x := range xs {
		packs = append(packs, x.packTimes()...)
		unpacks = append(unpacks, x.unpackOut())
	}
	r.set("layout.to_compact_ms_p50", durationsP50(packs), "ms")
	r.set("layout.from_compact_ms_p50", durationsP50(unpacks), "ms")
}

func (w *batchSync) close() {}
