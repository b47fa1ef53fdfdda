package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/kernels"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// spanLog keeps the phase breakdown of every span the engine hands to a
// per-call sink (iatf.WithSpanSink) during a traced run.
type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	phases [obs.PhaseCount]time.Duration
	fused  bool // rode in a fused dispatch
}

// sink is a per-call span sink (iatf.WithSpanSink) feeding l.
func (l *spanLog) sink() iatf.Option { return iatf.WithSpanSink(l.record) }

// phaseP50 is the median of phase p, in ms, over spans that spent time
// in it (and, with fusedOnly, rode a fused dispatch).
func (l *spanLog) phaseP50(p obs.Phase, fusedOnly bool) float64 {
	var d []time.Duration
	for _, s := range l.spans {
		if s.phases[p] > 0 && (!fusedOnly || s.fused) {
			d = append(d, s.phases[p])
		}
	}
	return durationsP50(d)
}

func (l *spanLog) phaseTotal(p obs.Phase) time.Duration {
	var t time.Duration
	for _, s := range l.spans {
		t += s.phases[p]
	}
	return t
}

// counters is the part of the engine counters the layer metrics read,
// summed over one or more windows of a run.
type counters struct {
	submitted, inline, dispatches, cancelled, stolen, rejected uint64
	wait                                                       map[uint64]uint64 // queue-wait observations per log2 bucket
	planHits, planMisses                                       uint64
	packHits, packBuilds, packStale                            uint64
	stalls, chunks, fallbacks                                  uint64
	parallel, inlineCalls, overflow                            uint64
	gets, reuses, allocs                                       uint64
}

// add accumulates the change from snapshot b to snapshot a.
func (c *counters) add(b, a iatf.EngineStats) {
	qb, qa := b.Queue, a.Queue
	c.submitted += qa.Submitted - qb.Submitted
	c.inline += qa.Inline - qb.Inline
	c.dispatches += qa.Dispatches - qb.Dispatches
	c.cancelled += qa.Cancelled - qb.Cancelled
	c.stolen += qa.StolenReqs - qb.StolenReqs
	c.rejected += qa.Rejected - qb.Rejected
	if c.wait == nil {
		c.wait = map[uint64]uint64{}
	}
	prev := map[uint64]uint64{}
	for _, k := range qb.Wait.Buckets {
		prev[k.UpperNs] = k.Count
	}
	for _, k := range qa.Wait.Buckets {
		c.wait[k.UpperNs] += k.Count - prev[k.UpperNs]
	}
	c.planHits += a.PlanHits - b.PlanHits
	c.planMisses += a.PlanMisses - b.PlanMisses
	c.packHits += a.PackCache.Hits - b.PackCache.Hits
	c.packBuilds += a.PackCache.Builds - b.PackCache.Builds
	c.packStale += a.PackCache.Stale - b.PackCache.Stale
	c.stalls += a.Pipeline.Stalls - b.Pipeline.Stalls
	c.chunks += a.Pipeline.Chunks - b.Pipeline.Chunks
	c.fallbacks += a.Pipeline.Fallbacks - b.Pipeline.Fallbacks
	c.parallel += a.Sched.ParallelCalls - b.Sched.ParallelCalls
	c.inlineCalls += a.Sched.InlineCalls - b.Sched.InlineCalls
	c.overflow += a.Sched.OverflowRuns - b.Sched.OverflowRuns
	c.gets += a.Buffers.Gets - b.Buffers.Gets
	c.reuses += a.Buffers.Reuses - b.Buffers.Reuses
	c.allocs += a.Buffers.Allocs - b.Buffers.Allocs
}

// waitQuantile reads quantile q (ms) of the queue waits, at the upper
// bound of the log2 bucket it falls in.
func (c *counters) waitQuantile(q float64) float64 {
	var uppers []uint64
	var total uint64
	for u, n := range c.wait {
		if n > 0 {
			uppers = append(uppers, u)
			total += n
		}
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	need := uint64(q*float64(total) + 0.5)
	var seen uint64
	for _, u := range uppers {
		seen += c.wait[u]
		if seen >= need {
			return float64(u) / 1e6
		}
	}
	return 0
}

func fl(v uint64) float64 { return float64(v) }

// engineLayer sets the engine, core-pipeline, sched and bufpool metrics
// from the counters of calls operations and the spans recorded with them.
func engineLayer(r *result, c *counters, calls int64, spans *spanLog) {
	r.set("engine.queue_wait_ms_p50", c.waitQuantile(0.5), "ms")
	r.set("engine.queue_wait_ms_p99", c.waitQuantile(0.99), "ms")
	r.set("engine.reqs_per_dispatch", ratio(fl(c.submitted-c.cancelled), fl(c.dispatches+c.inline)), "count")
	r.set("engine.inline_ratio", ratio(fl(c.inline), fl(c.submitted)), "ratio")
	r.set("engine.steal_ratio", ratio(fl(c.stolen), fl(c.submitted)), "ratio")
	r.set("engine.rejected_ratio", ratio(fl(c.rejected), fl(c.submitted+c.rejected)), "ratio")
	r.set("engine.fuse_us_p50", 1e3*spans.phaseP50(obs.PhaseFuse, true), "us")
	r.set("engine.scatter_us_p50", 1e3*spans.phaseP50(obs.PhaseScatter, true), "us")

	r.set("engine.plan_hit_ratio", ratio(fl(c.planHits), fl(c.planHits+c.planMisses)), "ratio")
	r.set("engine.plan_us_p50", 1e3*spans.phaseP50(obs.PhasePlan, false), "us")
	r.set("engine.packcache_hit_ratio", ratio(fl(c.packHits), fl(c.packHits+c.packBuilds)), "ratio")
	r.set("engine.packcache_stale_per_call", ratio(fl(c.packStale), float64(calls)), "count")
	r.set("engine.pack_us_p50", 1e3*spans.phaseP50(obs.PhasePack, false), "us")

	r.set("core.compute_ms_p50", spans.phaseP50(obs.PhaseCompute, false), "ms")
	r.set("core.pipeline_stall_ratio", ratio(fl(c.stalls), fl(c.chunks)), "ratio")
	r.set("core.pipeline_fallbacks", fl(c.fallbacks), "count")

	r.set("sched.parallel_ratio", ratio(fl(c.parallel), fl(c.parallel+c.inlineCalls)), "ratio")
	r.set("sched.overflow_runs", fl(c.overflow), "count")

	r.set("bufpool.reuse_ratio", ratio(fl(c.reuses), fl(c.gets)), "ratio")
	r.set("bufpool.allocs_per_call", ratio(fl(c.allocs), float64(calls)), "count")
}

// probeBudget is how long each direct layer probe measures.
const probeBudget = 300 * time.Millisecond

// pairTimes alternates two calls until budget is spent and returns the
// median duration of each, so drift on the host hits both alike.
func pairTimes(budget time.Duration, f, g func() error) (time.Duration, time.Duration, error) {
	var df, dg []time.Duration
	end := time.Now().Add(budget)
	for len(df) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := g(); err != nil {
			return 0, 0, err
		}
		df, dg = append(df, t1.Sub(t0)), append(dg, time.Since(t1))
	}
	return time.Duration(durationsP50(df) * 1e6), time.Duration(durationsP50(dg) * 1e6), nil
}

// coreProbe calls the core executor directly on a core.NewGEMMPlan plan:
// ExecGEMMNative (packs on the fly) against ExecGEMMNativePrepacked with
// the operands packed beforehand, on the same plan and data. It returns
// the useful FLOPs of one call and the median time of each form.
func coreProbe[E float32 | float64](dt vec.DType, n, count int, seed int64, budget time.Duration) (flops float64, native, prepacked time.Duration, err error) {
	p := core.GEMMProblem{DT: dt, M: n, N: n, K: n, Alpha: 1, Count: count}
	pl, err := core.NewGEMMPlan(p, core.DefaultTuning())
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	a := layout.FromBatch(dt, matrix.RandBatch[E](rng, count, n, n))
	b := layout.FromBatch(dt, matrix.RandBatch[E](rng, count, n, n))
	c := layout.NewCompact[E](dt, count, n, n)
	var preA, preB []E
	if pl.PackA {
		preA = make([]E, pl.PrepackALen(a.Groups()))
		if err := core.PrepackGEMMA(pl, a, preA); err != nil {
			return 0, 0, 0, err
		}
	}
	if pl.PackB {
		preB = make([]E, pl.PrepackBLen(b.Groups()))
		if err := core.PrepackGEMMB(pl, b, preB); err != nil {
			return 0, 0, 0, err
		}
	}
	native, prepacked, err = pairTimes(budget,
		func() error { return core.ExecGEMMNative(pl, a, b, c) },
		func() error { return core.ExecGEMMNativePrepacked(pl, a, b, c, preA, preB, 1) })
	return p.FLOPs(), native, prepacked, err
}

// Table 1 main kernel of the real routines: a 4×4 register tile, with
// a reduction length matching the largest workload matrices.
const (
	kernMC, kernNC, kernK = 4, 4, 16
	kernTriM, kernTriCols = 4, 16
)

// kernelProbe times kernels.GEMM and kernels.Tri of the double-precision
// main kernels on L1-resident packed panels, and returns their GFLOP/s
// and the GEMM kernel's FLOPs per byte of operand panels, computed from
// its dimensions.
func kernelProbe(budget time.Duration) (gemmGF, triGF, flopsPerByte float64) {
	vl := vec.D.Pack()
	pa := make([]float64, kernMC*kernK*vl)
	pb := make([]float64, kernK*kernNC*vl)
	c := make([]float64, kernMC*kernNC*vl)
	for i := range pa {
		pa[i] = 1 / float64(i+1)
	}
	for i := range pb {
		pb[i] = 1 / float64(i+2)
	}
	gemmFlops := float64(2 * kernMC * kernNC * kernK * vl)
	gemmGF = gflopsLoop(budget/2, gemmFlops, func() {
		kernels.GEMM(pa, pb, c, kernMC, kernNC, kernK, kernMC, vl, 1, true)
	})
	// Identity triangle (unit reciprocal diagonal), so the in-place
	// solve leaves B unchanged call after call.
	tri := make([]float64, kernTriM*(kernTriM+1)/2*vl)
	for i := 0; i < kernTriM; i++ {
		row := i * (i + 1) / 2
		for l := 0; l < vl; l++ {
			tri[(row+i)*vl+l] = 1
		}
	}
	b := make([]float64, kernTriCols*kernTriM*vl)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	triGF = gflopsLoop(budget/2, float64(kernTriM*kernTriM*kernTriCols*vl), func() {
		kernels.Tri(tri, b, kernTriM, kernTriCols, kernTriM, vl)
	})
	bytes := float64((kernMC*kernK + kernK*kernNC + kernMC*kernNC) * vl * vec.D.ElemBytes())
	return gemmGF, triGF, gemmFlops / bytes
}

// gflopsLoop repeats f in blocks of calls until budget is spent and
// returns the median block rate.
func gflopsLoop(budget time.Duration, flopsPerCall float64, f func()) float64 {
	const block = 4096
	var rates []float64
	end := time.Now().Add(budget)
	for len(rates) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < block; i++ {
			f()
		}
		rates = append(rates, flopsPerCall*block/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// record keeps a request span. As an engine-level sink
// (Engine.SetSpanSink) it also sees the parent span of each fused
// dispatch, which it skips: the riders already carry its shared phases.
func (l *spanLog) record(sp *iatf.Span) {
	if sp.Fused >= 2 {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, spanRec{phases: sp.Phases, fused: sp.ParentID != 0})
	l.mu.Unlock()
}
