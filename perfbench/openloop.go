package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open loop: an independent user who shows
// up at due, whatever the state of earlier requests.
type arrival struct {
	due  time.Duration // since the start of its open segment
	at   time.Duration // since the start of the measured open time
	id   int           // identity index
	rt   bool          // tenant rt (tight deadline) rather than batch
	warm bool          // warm-up arrival, issued but not measured
}

// Tenants of the open loops: one arrival in rtBlock is "rt" (priority 5,
// tight deadline), the rest "batch" (priority −1, loose deadline).
const (
	rtBlock   = 10
	rtClass   = 5
	bulkClass = -1
)

func tenantOf(rt bool) (name string, class int) {
	if rt {
		return "rt", rtClass
	}
	return "batch", bulkClass
}

// warmup is the open time before the first measured segment, whose
// arrivals are issued but not measured.
const warmup = 500 * time.Millisecond

// scheduler draws Poisson arrivals from the seed. Identities come in
// shuffled blocks holding each once, and tenants in shuffled blocks of
// rtBlock holding one rt arrival, so every segment sees the same mix
// whatever the seed.
type scheduler struct {
	rng        *rand.Rand
	identities int
	ids        []int
	rts        []bool
}

// segment returns the arrivals of one open segment of length dur.
func (s *scheduler) segment(rate float64, dur time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		if len(s.ids) == 0 {
			s.ids = s.rng.Perm(s.identities)
		}
		if len(s.rts) == 0 {
			s.rts = make([]bool, rtBlock)
			s.rts[s.rng.Intn(rtBlock)] = true
		}
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), id: s.ids[0], rt: s.rts[0]})
		s.ids, s.rts = s.ids[1:], s.rts[1:]
	}
}

// outcomeKind classifies one request for the SLO accounting.
type outcomeKind int

const (
	okOnTime      outcomeKind = iota
	okLate                    // completed after its deadline
	shed                      // 429 from admission control
	queueFull                 // ErrQueueFull / 429 backpressure
	expired                   // deadline passed while queued or running (504)
	errored                   // any other failure
	wrong                     // completed, but differs from the oracle
	generatorFull             // the generator's outstanding bound was hit
)

type outcome struct {
	kind  outcomeKind
	lat   time.Duration // completion − due
	lag   time.Duration // issue − due
	flops float64
}

// maxOutstanding bounds the goroutines an open loop keeps in flight; an
// arrival beyond it is counted as failed instead of issued.
const maxOutstanding = 4096

// openLoop issues each arrival of one segment at its due time on a
// goroutine of its own (the scheduling goroutine never waits for a
// request), storing the outcome of arrival i at outs[i]; base is the index
// of arr[0] in the whole run. It returns the requests still outstanding
// when the segment's window closed.
func openLoop(arr []arrival, outs []outcome, base int, window time.Duration, do func(i int, a arrival, due time.Time) outcome) int64 {
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		if outstanding.Load() >= maxOutstanding {
			outs[base+i] = outcome{kind: generatorFull, lag: lag}
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			o := do(base+i, a, due)
			o.lag = lag
			outs[base+i] = o
		}(i, a, due)
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	backlog := outstanding.Load()
	wg.Wait()
	return backlog
}

// openStats summarizes the measured (post-warm-up) part of an open loop.
type openStats struct {
	samples  []sample
	lags     []float64 // ms
	attempts int64
	failed   int64 // no result: errors, sheds, expiries, mismatches
	misses   int64 // SLO misses: failed plus late completions
	byKind   map[outcomeKind]int64
}

func summarizeOpen(arr []arrival, outs []outcome) *openStats {
	s := &openStats{byKind: map[outcomeKind]int64{}}
	for i, o := range outs {
		if arr[i].warm {
			continue
		}
		s.attempts++
		s.byKind[o.kind]++
		s.lags = append(s.lags, ms(o.lag))
		switch o.kind {
		case okOnTime:
		case okLate:
			s.misses++
		default:
			s.failed++
			s.misses++
		}
		if o.kind == okOnTime || o.kind == okLate {
			s.samples = append(s.samples, sample{at: arr[i].at, lat: o.lat})
		}
	}
	return s
}

// closedStats is what one closed loop measured.
type closedStats struct {
	done, failed int64
	flops        float64       // useful FLOPs of the completed requests
	busy         time.Duration // summed duration of the completed requests
	dur          time.Duration
}

// closedLoop runs callers goroutines that each issue their next request
// as soon as the previous one completes, for dur. Caller c cycles through
// the identities in an order drawn from seed+c, so every loop sees the
// same mix. Requests that end after dur are not counted.
func closedLoop(callers int, dur time.Duration, seed int64, identities int, do func(id int, rng *rand.Rand) outcome) closedStats {
	var mu sync.Mutex
	var wg sync.WaitGroup
	st := closedStats{dur: dur}
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			order := rng.Perm(identities)
			for k := 0; ; k++ {
				t0 := time.Now()
				o := do(order[k%identities], rng)
				if time.Since(start) >= dur {
					return
				}
				mu.Lock()
				if o.kind == okOnTime || o.kind == okLate {
					st.done++
					st.flops += o.flops
					st.busy += time.Since(t0)
				} else {
					st.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return st
}

// openTarget is what runOpen needs from a workload.
type openTarget struct {
	rate float64
	// openShare is the part of each epoch spent in the open loop; the
	// one-caller and saturation closed loops split the rest.
	openShare   float64
	identities  int
	peakCallers int
	// open issues arrival i of the run; closed issues one closed-loop
	// request.
	open   func(i int, a arrival, due time.Time) outcome
	closed func(id int, rng *rand.Rand) outcome
	// segment is called before (start) and after each measured open
	// segment, so a traced run can take counter deltas over them only.
	segment func(start bool)
}

// openRun is what runOpen measured.
type openRun struct {
	arr     []arrival
	outs    []outcome
	open    time.Duration // measured open time
	backlog int64         // most requests outstanding at a segment's end
	single  []closedStats // per epoch
	sat     []closedStats // per epoch
	heapMB  float64
}

// runOpen measures an open-loop workload in `slices` epochs. Each epoch
// is an open segment (openShare of it), a one-caller closed loop and a
// saturation closed loop of peakCallers (half the rest each).
// Interleaving them spreads noise from the rest of the host over every
// metric alike.
func runOpen(cfg config, t openTarget) *openRun {
	epoch := time.Duration(cfg.seconds * float64(time.Second) / slices)
	openDur := time.Duration(float64(epoch) * t.openShare)
	closedDur := (epoch - openDur) / 2
	sch := &scheduler{rng: rand.New(rand.NewSource(cfg.seed + 3)), identities: t.identities}
	run := &openRun{open: openDur * slices}
	warm := sch.segment(t.rate, warmup)
	for i := range warm {
		warm[i].warm = true
	}
	run.arr = append(run.arr, warm...)
	segs := [][2]int{{0, len(warm)}}
	for e := 0; e < slices; e++ {
		seg := sch.segment(t.rate, openDur)
		for i := range seg {
			seg[i].at = time.Duration(e)*openDur + seg[i].due
		}
		segs = append(segs, [2]int{len(run.arr), len(run.arr) + len(seg)})
		run.arr = append(run.arr, seg...)
	}
	run.outs = make([]outcome, len(run.arr))
	openLoop(run.arr[:len(warm)], run.outs, 0, warmup, t.open)
	heap := startHeapSampler()
	for e := 0; e < slices; e++ {
		lo, hi := segs[e+1][0], segs[e+1][1]
		t.segment(true)
		if b := openLoop(run.arr[lo:hi], run.outs, lo, openDur, t.open); b > run.backlog {
			run.backlog = b
		}
		t.segment(false)
		seed := cfg.seed + 100*int64(e+1)
		run.single = append(run.single, closedLoop(1, closedDur, seed, t.identities, t.closed))
		run.sat = append(run.sat, closedLoop(t.peakCallers, closedDur, seed+50, t.identities, t.closed))
	}
	run.heapMB = heap.peakMB()
	return run
}

// results sets the end-to-end metrics of an open-loop workload and the
// generator layer's.
func (run *openRun) results(r *result) *openStats {
	s := summarizeOpen(run.arr, run.outs)
	r.Attempted, r.Failed = s.attempts, s.failed
	r.setLatency(summarize(s.samples, run.open))
	miss := ratio(float64(s.misses), float64(s.attempts))
	r.set("slo_attain_ratio", 1-miss, "ratio")
	r.note("slo_miss_ratio", miss)
	r.set("heap_peak_mb", run.heapMB, "MiB")
	r.set("gen.lag_ms_p99", quantileOf(s.lags, 0.99), "ms")
	r.set("gen.backlog_end", float64(run.backlog), "count")
	// The closed loops' rates are totals over the epochs: a segment is
	// short enough that how many GC cycles fall into it moves its rate.
	var one, sat closedStats
	for e := range run.single {
		c, p := run.single[e], run.sat[e]
		one.flops, one.busy = one.flops+c.flops, one.busy+c.busy
		sat.flops, sat.dur, sat.done = sat.flops+p.flops, sat.dur+p.dur, sat.done+p.done
		r.Attempted += c.done + c.failed + p.done + p.failed
		r.Failed += c.failed + p.failed
	}
	r.set("gflops_1t", one.flops/one.busy.Seconds()/1e9, "GFLOP/s")
	r.set("gflops_nt", sat.flops/sat.dur.Seconds()/1e9, "GFLOP/s")
	r.set("peak_rps", float64(sat.done)/sat.dur.Seconds(), "1/s")
	r.note("open_attempts", s.attempts)
	r.note("open_misses", s.misses)
	r.note("outcomes", map[string]int64{
		"on_time": s.byKind[okOnTime], "late": s.byKind[okLate], "shed": s.byKind[shed],
		"queue_full": s.byKind[queueFull], "expired": s.byKind[expired],
		"errored": s.byKind[errored], "wrong": s.byKind[wrong], "generator_full": s.byKind[generatorFull],
	})
	return s
}

func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}
