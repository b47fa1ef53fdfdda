package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iatf"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/serve"
)

// httpJSON is the open-loop workload of POST /v1/do requests to a
// serve.Server over keep-alive loopback connections: JSON decode/encode
// and wire↔compact conversion are most of each request.
type httpJSON struct {
	cfg    config
	specs  []spec
	bodies [][]*wireBody // per identity, per variant

	eng    *iatf.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client

	// handler holds each traced request's time inside the serve
	// handler, indexed by its X-Bench-Seq header.
	handler []atomic.Int64
	// plans and spans are the engine's spans of the first requests and
	// of the open loop, traced runs only.
	plans, spans spanLog

	mu         sync.Mutex
	firstWrong error
}

// wireBody is one pre-encoded request, once per tenant (the deadline is
// part of the body), with the oracle's expected result.
type wireBody struct {
	rt, bulk []byte
	want     []float64
	tol      float64
}

const (
	// httpRate is the open loop's arrival rate, about an eighth of the
	// workload's peak_rps on a 2-core Xeon. At three times the rate
	// queueing for the connections made p50 and p99 swing with every
	// burst of arrivals or of noise from the rest of the host.
	httpRate = 30.0
	// httpOpenShare: most of the run is the open loop, so its p99 rests
	// on over a thousand requests.
	httpOpenShare    = 0.8
	httpVariants     = 4
	httpRTDeadline   = 250 * time.Millisecond
	httpBulkDeadline = 2 * time.Second
	// httpVerifyEvery: about one response in httpVerifyEvery is decoded
	// and checked against the oracle.
	httpVerifyEvery = 16
)

func newHTTPJSON(cfg config) workload { return &httpJSON{cfg: cfg} }

// httpSpecs: f32/f64 GEMM and TRSM at 8×8, counts 64–128, chosen so
// every body is 200–330 KiB: with one body size the latency tail comes
// from the server, not from which identities happened to collide.
func httpSpecs(small bool) []spec {
	out := []spec{
		{kind: kGEMM, n: 8, count: 64},
		{kind: kGEMM, f64: true, n: 8, count: 64},
		{kind: kTRSM, n: 8, count: 128},
		{kind: kTRSM, f64: true, n: 8, count: 64},
	}
	if small {
		for i := range out {
			out[i].count = 4
		}
	}
	return out
}

func (w *httpJSON) generate() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.specs = httpSpecs(w.cfg.small)
	for _, s := range w.specs {
		var vs []*wireBody
		variants := httpVariants
		if w.cfg.setupOnly {
			variants = 1
		}
		for v := 0; v < variants; v++ {
			var b *wireBody
			var err error
			if s.f64 {
				b, err = encodeBody[float64](s, rng)
			} else {
				b, err = encodeBody[float32](s, rng)
			}
			if err != nil {
				return err
			}
			vs = append(vs, b)
		}
		w.bodies = append(w.bodies, vs)
	}
	return nil
}

func wire[T real](b *matrix.Batch[T]) *serve.WireOperand {
	d := make([]float64, len(b.Data))
	for i, v := range b.Data {
		d[i] = float64(v)
	}
	return &serve.WireOperand{Rows: b.Rows, Cols: b.Cols, Data: d}
}

// encodeBody draws one request of identity s and encodes it for both
// tenants.
func encodeBody[T real](s spec, rng *rand.Rand) (*wireBody, error) {
	n, cnt := s.n, s.count
	req := serve.DoRequest{DType: "f32", Alpha: 1, Count: cnt}
	if s.f64 {
		req.DType = "f64"
	}
	var out *matrix.Batch[T]
	switch s.kind {
	case kGEMM:
		a, b := matrix.RandBatch[T](rng, cnt, n, n), matrix.RandBatch[T](rng, cnt, n, n)
		out = matrix.NewBatch[T](cnt, n, n)
		matrix.RefGEMMBatch(iatf.NoTrans, iatf.NoTrans, 1, a, b, 0, out)
		req.Op, req.TransA, req.TransB = "gemm", "N", "N"
		req.A, req.B, req.C = wire(a), wire(b), wire(matrix.NewBatch[T](cnt, n, n))
	case kTRSM:
		a, b := matrix.RandTriangularBatch[T](rng, cnt, n), matrix.RandBatch[T](rng, cnt, n, n)
		req.Op, req.Side, req.Uplo, req.TransA, req.Diag = "trsm", "L", "L", "N", "N"
		req.A, req.B = wire(a), wire(b)
		out = b.Clone()
		matrix.RefTRSMBatch(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, a, out)
	default:
		return nil, fmt.Errorf("http-json has no %s identity", s.kind)
	}
	wb := &wireBody{want: wire(out).Data, tol: matrix.Tol[T](n)}
	var err error
	req.DeadlineMs = httpRTDeadline.Milliseconds()
	if wb.rt, err = json.Marshal(&req); err != nil {
		return nil, err
	}
	req.DeadlineMs = httpBulkDeadline.Milliseconds()
	wb.bulk, err = json.Marshal(&req)
	return wb, err
}

// start brings the server up the way iatf-serve builds it by default:
// one engine, EDF, a 2 ms batch window and a tenants map.
func (w *httpJSON) start() error {
	w.eng = iatf.NewEngine(iatf.WithEDF(true), iatf.WithBatchWindow(asyncWindow))
	w.srv = serve.New(serve.Config{Engine: w.eng, Tenants: tenants(httpRTDeadline, httpBulkDeadline)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = w.srv.Handler()
	if w.cfg.trace {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(rw, req)
			if i, err := strconv.Atoi(req.Header.Get("X-Bench-Seq")); err == nil && i >= 0 && i < len(w.handler) {
				w.handler[i].Store(int64(time.Since(t0)))
			}
		})
		w.eng.SetSpanSink(w.plans.record)
	}
	w.hs = &http.Server{Handler: h}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	nproc := runtime.GOMAXPROCS(0)
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
	}}
	w.url = "http://" + ln.Addr().String() + "/v1/do"
	for id := range w.specs {
		if o := w.post(id, 0, false, true, time.Now(), -1); o.kind != okOnTime {
			if err := w.mismatch(); err != nil {
				return err
			}
			return fmt.Errorf("%s: first request failed (outcome %d)", w.specs[id].name(), o.kind)
		}
	}
	w.eng.SetSpanSink(nil)
	return nil
}

func (w *httpJSON) mismatch() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstWrong == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errMismatch, w.firstWrong)
}

// traceID derives request i's W3C trace id from the seed.
func traceID(seed int64, i int) string {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i) + 1
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return fmt.Sprintf("00-%016x%016x-%016x-01", x, x*0x94D049BB133111EB, x|1)
}

// post sends one request and classifies its outcome. seq ≥ 0 tags the
// request for the traced handler timing.
func (w *httpJSON) post(id, variant int, rt, verify bool, due time.Time, seq int) outcome {
	wb := w.bodies[id][variant%len(w.bodies[id])]
	body := wb.bulk
	if rt {
		body = wb.rt
	}
	tenant, _ := tenantOf(rt)
	o := outcome{flops: w.specs[id].flops()}
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		o.kind = errored
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-IATF-Tenant", tenant)
	req.Header.Set("traceparent", traceID(w.cfg.seed, seq))
	if seq >= 0 {
		req.Header.Set("X-Bench-Seq", strconv.Itoa(seq))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		o.kind = errored
		o.lat = time.Since(due)
		return o
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if verify {
			if cerr := checkResponse(resp.Body, wb); cerr != nil {
				w.mu.Lock()
				if w.firstWrong == nil {
					w.firstWrong = fmt.Errorf("%s: %v", w.specs[id].name(), cerr)
				}
				w.mu.Unlock()
				o.kind = wrong
			}
		} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			o.kind = errored
		}
	case http.StatusTooManyRequests:
		msg, _ := io.ReadAll(resp.Body)
		o.kind = shed
		if strings.Contains(string(msg), "queue full") {
			o.kind = queueFull
		}
	case http.StatusGatewayTimeout:
		o.kind = expired
	default:
		o.kind = errored
	}
	o.lat = time.Since(due)
	return o
}

func checkResponse(r io.Reader, wb *wireBody) error {
	var resp serve.DoResponse
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return err
	}
	// Read the encoder's trailing newline too: a body not read to its end
	// costs the keep-alive connection.
	if _, err := io.Copy(io.Discard, r); err != nil {
		return err
	}
	if !matrix.WithinTol(resp.Result, wb.want, wb.tol) {
		return fmt.Errorf("response differs from the oracle by %g", matrix.MaxAbsDiff(resp.Result, wb.want))
	}
	return nil
}

func (w *httpJSON) measure(r *result) error {
	nproc := runtime.GOMAXPROCS(0)
	vr := rand.New(rand.NewSource(w.cfg.seed + 6))
	// Every arrival of the run, warm-up included, has an index below
	// maxArrivals (the rate plus six standard deviations, per second).
	maxArrivals := int((httpRate+6*math.Sqrt(httpRate))*(w.cfg.seconds*httpOpenShare+warmup.Seconds())) + 64
	verify := make([]bool, maxArrivals)
	for i := range verify {
		verify[i] = vr.Intn(httpVerifyEvery) == 0
	}
	w.handler = make([]atomic.Int64, maxArrivals)
	client := make([]time.Duration, maxArrivals) // from issue to the last byte
	var c counters
	var rt runtimeStats
	var st0 iatf.EngineStats
	var rt0 runtimeStats
	var sv serve.Stats
	var sv0 serve.Stats
	run := runOpen(w.cfg, openTarget{
		rate:        httpRate,
		openShare:   httpOpenShare,
		identities:  len(w.specs),
		peakCallers: nproc,
		open: func(i int, a arrival, due time.Time) outcome {
			if i >= maxArrivals {
				return outcome{kind: generatorFull}
			}
			seq := -1
			if w.cfg.trace {
				seq = i
			}
			t0 := time.Now()
			o := w.post(a.id, i, a.rt, verify[i], due, seq)
			client[i] = time.Since(t0)
			if o.kind == okOnTime && o.lat > deadlineOf(a.rt, httpRTDeadline, httpBulkDeadline) {
				o.kind = okLate
			}
			return o
		},
		closed: func(id int, rng *rand.Rand) outcome {
			return w.post(id, rng.Intn(httpVariants), false, rng.Intn(httpVerifyEvery) == 0, time.Now(), -1)
		},
		segment: func(start bool) {
			if !w.cfg.trace {
				return
			}
			if start {
				// Spans are recorded in the open segments only.
				w.eng.SetSpanSink(w.spans.record)
				st0, rt0, sv0 = w.eng.Stats(), readRuntime(), w.srv.Stats()
				return
			}
			w.eng.SetSpanSink(nil)
			c.add(st0, w.eng.Stats())
			rt.add(rt0, readRuntime())
			s1 := w.srv.Stats()
			sv.Shed += s1.Shed - sv0.Shed
			sv.Expired += s1.Expired - sv0.Expired
			sv.QueueFull += s1.QueueFull - sv0.QueueFull
		},
	})
	st := run.results(r)
	r.note("peak_callers", nproc)
	r.note("rate_rps", httpRate)
	if w.cfg.trace {
		var handler, transport []time.Duration
		var bodyBytes float64
		for i, a := range run.arr {
			if a.warm || i >= maxArrivals {
				continue
			}
			wb := w.bodies[a.id][i%len(w.bodies[a.id])]
			if a.rt {
				bodyBytes += float64(len(wb.rt))
			} else {
				bodyBytes += float64(len(wb.bulk))
			}
			if h := time.Duration(w.handler[i].Load()); h > 0 && run.outs[i].kind == okOnTime {
				handler = append(handler, h)
				transport = append(transport, client[i]-h)
			}
		}
		att := float64(st.attempts)
		r.set("serve.handler_ms_p50", durationsP50(handler), "ms")
		r.set("serve.transport_ms_p50", durationsP50(transport), "ms")
		r.set("serve.body_kb", bodyBytes/1024/att, "KiB")
		r.set("serve.shed_ratio", float64(sv.Shed)/att, "ratio")
		r.set("serve.expired_ratio", float64(sv.Expired)/att, "ratio")
		r.set("serve.queue_full_ratio", float64(sv.QueueFull)/att, "ratio")
		engineLayer(r, &c, st.attempts, &w.spans)
		r.set("engine.plan_build_ms_total", ms(w.plans.phaseTotal(obs.PhasePlan)), "ms")
		goLayer(r, rt, st.attempts)
		if err := w.wireProbe(r); err != nil {
			return err
		}
	}
	return w.mismatch()
}

// wireProbe times, for every pre-encoded body, what the handler does
// around the engine: decoding it into serve.DoRequest, converting its
// operands to the compact layout, converting the written operand back,
// and encoding the matching serve.DoResponse.
func (w *httpJSON) wireProbe(r *result) error {
	const reps = 5
	var dec, enc, to, from []time.Duration
	for id, vs := range w.bodies {
		for _, wb := range vs {
			for k := 0; k < reps; k++ {
				var req serve.DoRequest
				t0 := time.Now()
				if err := json.NewDecoder(bytes.NewReader(wb.bulk)).Decode(&req); err != nil {
					return err
				}
				dec = append(dec, time.Since(t0))
				var tc, fc time.Duration
				if w.specs[id].f64 {
					tc, fc = wireConvert[float64](&req)
				} else {
					tc, fc = wireConvert[float32](&req)
				}
				to, from = append(to, tc), append(from, fc)
				t0 = time.Now()
				if err := json.NewEncoder(io.Discard).Encode(serve.DoResponse{Result: wb.want, ElapsedUs: 1}); err != nil {
					return err
				}
				enc = append(enc, time.Since(t0))
			}
		}
	}
	r.set("serve.decode_ms_p50", durationsP50(dec), "ms")
	r.set("serve.encode_ms_p50", durationsP50(enc), "ms")
	r.set("layout.to_compact_ms_p50", durationsP50(to), "ms")
	r.set("layout.from_compact_ms_p50", durationsP50(from), "ms")
	return nil
}

// wireConvert packs the request's operands into the compact layout and
// unpacks the last one back to wire values, as the handler does.
func wireConvert[T real](req *serve.DoRequest) (to, from time.Duration) {
	var last *iatf.Compact[T]
	t0 := time.Now()
	for _, o := range []*serve.WireOperand{req.A, req.B, req.C} {
		if o == nil {
			continue
		}
		b := iatf.NewBatch[T](req.Count, o.Rows, o.Cols)
		d := b.Data()
		for i, v := range o.Data {
			d[i] = T(v)
		}
		last = iatf.Pack(b)
	}
	to = time.Since(t0)
	t0 = time.Now()
	out := last.Unpack().Data()
	res := make([]float64, len(out))
	for i, v := range out {
		res[i] = float64(v)
	}
	return to, time.Since(t0)
}

func (w *httpJSON) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
