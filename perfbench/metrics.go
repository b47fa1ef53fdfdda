package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes holds what the result line has no room for: sample counts and
	// the quantile reported as each tail. They go to the report file and
	// standard error.
	notes map[string]any
}

func (r *result) note(key string, v any) {
	if r.notes == nil {
		r.notes = map[string]any{}
	}
	r.notes[key] = v
}

// setLatency sets lat_p50_ms and lat_p99_ms and notes the sample count
// and the quantile the tail really is.
func (r *result) setLatency(s latencySummary) {
	r.set("lat_p50_ms", s.p50, "ms")
	r.set("lat_p99_ms", s.tail, "ms")
	r.note("lat_samples", s.n)
	r.note("lat_p99_quantile", s.tailQ)
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// slices is how many equal time slices a timed window is cut into for the
// heap peak and the open-loop epochs, and latencySlices the most it is cut
// into for latency percentiles. Each metric is the median over its slices,
// so a burst of noise on a shared host moves it little.
const (
	slices        = 10
	latencySlices = 20
)

// sample is one timed operation: when it was due (or started) relative
// to the window start, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailQuantile is 0.99, or, when fewer than ten samples lie beyond the
// 99th percentile, the highest quantile that has ten beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return math.Max(q, 0.5)
}

// latencySummary is p50 and the tail quantile of a timed window, each the
// median over up to latencySlices slices of the window.
type latencySummary struct {
	p50, tail float64 // ms
	tailQ     float64 // the quantile reported as the tail
	n         int
}

func summarize(samples []sample, window time.Duration) latencySummary {
	// A slice needs about a thousand samples for its p99 to have ten
	// beyond it; with fewer samples, fewer slices.
	k := len(samples) / 1000
	if k < 1 {
		k = 1
	}
	if k > latencySlices {
		k = latencySlices
	}
	parts := make([][]float64, k)
	for _, s := range samples {
		i := int(int64(s.at) * int64(k) / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		parts[i] = append(parts[i], ms(s.lat))
	}
	minN := len(samples)
	for _, sl := range parts {
		if len(sl) < minN {
			minN = len(sl)
		}
	}
	out := latencySummary{n: len(samples), tailQ: tailQuantile(minN)}
	var p50s, tails []float64
	for _, sl := range parts {
		if len(sl) == 0 {
			continue
		}
		sort.Float64s(sl)
		p50s = append(p50s, quantile(sl, 0.5))
		tails = append(tails, quantile(sl, out.tailQ))
	}
	out.p50, out.tail = median(p50s), median(tails)
	return out
}

// durationsP50 is the median of a set of durations, in ms.
func durationsP50(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return median(v)
}

// runtimeStats is a reading of the Go runtime counters the go layer
// reports.
type runtimeStats struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// add accumulates the change from reading b to reading a.
func (s *runtimeStats) add(b, a runtimeStats) {
	s.allocBytes += a.allocBytes - b.allocBytes
	s.allocObjects += a.allocObjects - b.allocObjects
	s.gcCPU += a.gcCPU - b.gcCPU
	s.totalCPU += a.totalCPU - b.totalCPU
}

// goLayer sets the go.* metrics from the runtime counters' change d over
// ops operations.
func goLayer(r *result, d runtimeStats, ops int64) {
	if ops < 1 {
		ops = 1
	}
	r.set("go.alloc_kb_per_req", float64(d.allocBytes)/1024/float64(ops), "KiB")
	r.set("go.allocs_per_req", float64(d.allocObjects)/float64(ops), "count")
	r.set("go.gc_cpu_ratio", ratio(d.gcCPU, d.totalCPU), "ratio")
}

// heapSampler records the live heap every few milliseconds while a timed
// window runs; peak is the median over the slices of each slice's
// maximum.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	start time.Time
	vals  []sample // lat holds bytes
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.vals = append(h.vals, sample{at: time.Since(h.start), lat: time.Duration(s[0].Value.Uint64())})
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the heap peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	window := time.Since(h.start)
	peaks := make([]float64, slices)
	for _, v := range h.vals {
		i := int(int64(v.at) * slices / int64(window))
		if i >= slices {
			i = slices - 1
		}
		peaks[i] = math.Max(peaks[i], float64(v.lat)/(1<<20))
	}
	return median(peaks)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
