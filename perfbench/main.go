// Command perfbench is the repository benchmark: it drives the compact
// BLAS library through its entry points on seeded workloads (batch-sync
// and small-async, declared in BENCHMARK.json, and http-json), checks
// sampled outputs against the internal/matrix oracle, and prints one JSON
// result line.
//
//	perfbench --workload batch-sync --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, timed by the benchmark's own wrappers
// around calls into each layer. run.py builds this command and runs it;
// BENCHMARK.json declares the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every input so the whole run takes well under a
	// second (the package tests).
	small bool
	// exe, when set, is re-executed for each set-up measurement and for
	// the traced run's untraced baseline, so each gets a fresh process.
	exe string
	// setupReps is how many fresh processes measure set-up time;
	// setupOnly marks such a process, which builds only what start uses.
	setupReps int
	setupOnly bool
	commit    string
	reportDir string
}

// workload is one benchmark scenario.
type workload interface {
	// generate makes the inputs from the seed; it is not timed.
	generate() error
	// start builds the engine (or server) and runs every identity once,
	// verifying its first result; its duration is the set-up time.
	start() error
	// measure runs the timed phases and sets the result's metrics.
	measure(r *result) error
	close()
}

var workloads = map[string]func(config) workload{
	"batch-sync":  newBatchSync,
	"small-async": newSmallAsync,
	"http-json":   newHTTPJSON,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Set-up is measured in at least --setup-reps fresh processes, and in more
// (up to maxSetupReps) while all of them together take under setupBudget:
// a set-up of a few milliseconds needs many samples for a steady median.
const (
	maxSetupReps = 25
	setupBudget  = 3 * time.Second
)

// errMismatch marks a run in which some output differed from the oracle.
var errMismatch = errors.New("output differs from the oracle")

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run (per-layer metrics)")
	flag.IntVar(&cfg.setupReps, "setup-reps", 9, "fresh processes that measure set-up time")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, for the host fingerprint")
	flag.StringVar(&cfg.reportDir, "report-dir", "", "directory for the full report (empty = none)")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "measure set-up once and print it")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", ")))
	}
	if cfg.setupOnly {
		d, err := setupOnce(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("{\"setup_s\": %g}\n", d.Seconds())
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg.exe = exe
	r, err := run(cfg)
	if err != nil && !errors.Is(err, errMismatch) {
		fatal(err)
	}
	host := fingerprint(cfg.commit)
	if cfg.reportDir != "" {
		if werr := writeReport(cfg, host, r); werr != nil {
			fatal(werr)
		}
	}
	hj, _ := json.Marshal(map[string]any{"host": host, "notes": r.notes})
	fmt.Println(string(hj))
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// setupOnce generates the inputs and times start in this process.
func setupOnce(cfg config) (time.Duration, error) {
	w := workloads[cfg.workload](cfg)
	defer w.close()
	if err := w.generate(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := w.start()
	return time.Since(t0), err
}

// run performs one benchmark run. A returned errMismatch comes with a
// complete result whose Correct is false.
func run(cfg config) (*result, error) {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	var setup []float64
	var base *result
	if cfg.exe != "" && !cfg.trace {
		// At least setupReps fresh processes, more while they are cheap.
		t0 := time.Now()
		for i := 0; cfg.setupReps > 0 && (i < cfg.setupReps || i < maxSetupReps && time.Since(t0) < setupBudget); i++ {
			var v struct {
				Setup float64 `json:"setup_s"`
			}
			if err := child(cfg, &v, "--setup-only"); err != nil {
				return nil, fmt.Errorf("set-up measurement: %w", err)
			}
			setup = append(setup, v.Setup)
		}
	}
	if cfg.exe != "" && cfg.trace {
		base = &result{}
		if err := child(cfg, base, "--trace", "0", "--setup-reps", "0"); err != nil {
			return nil, fmt.Errorf("untraced baseline: %w", err)
		}
	}
	w := workloads[cfg.workload](cfg)
	defer w.close()
	if err := w.generate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.start(); err != nil {
		if errors.Is(err, errMismatch) {
			r.Correct = false
			r.Attempted, r.Failed = 1, 1
			return r, err
		}
		return nil, err
	}
	if len(setup) == 0 {
		setup = append(setup, time.Since(t0).Seconds())
	}
	err := w.measure(r)
	if err != nil && !errors.Is(err, errMismatch) {
		return nil, err
	}
	if cfg.trace {
		if base == nil {
			base = &result{Metrics: map[string]metric{}}
			base.Metrics["lat_p50_ms"] = r.Metrics["lat_p50_ms"]
			base.Metrics["gflops_1t"] = r.Metrics["gflops_1t"]
		}
		traceOverhead(r, base)
		traced := map[string]metric{}
		for _, m := range perLayer {
			v, ok := r.Metrics[m.name]
			if !ok {
				// A layer this workload never calls into did no work.
				v = metric{Value: 0, Unit: m.unit}
			}
			traced[m.name] = v
		}
		r.Metrics = traced
	} else {
		r.set("setup_s", median(setup), "s")
		e2e := map[string]metric{}
		for _, m := range endToEnd {
			e2e[m.name] = r.Metrics[m.name]
		}
		r.Metrics = e2e
	}
	if err != nil {
		r.Correct = false
	}
	return r, err
}

// traceOverhead compares the traced run with the untraced one: the larger
// slowdown of lat_p50_ms and gflops_1t.
func traceOverhead(traced, base *result) {
	lat := ratio(traced.Metrics["lat_p50_ms"].Value, base.Metrics["lat_p50_ms"].Value)
	gf := ratio(base.Metrics["gflops_1t"].Value, traced.Metrics["gflops_1t"].Value)
	if gf > lat {
		lat = gf
	}
	traced.set("obs.trace_overhead_ratio", lat, "ratio")
}

// child re-executes this command with the run's workload and seed plus
// args, and decodes the JSON on its last output line into v.
func child(cfg config, v any, args ...string) error {
	all := append([]string{
		"--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds),
	}, args...)
	cmd := exec.Command(cfg.exe, all...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), v)
}

// fingerprint describes the host, so results from different machines are
// never compared unawares.
func fingerprint(commit string) map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"cpu_model":  cpuModel(),
	}
	for k, v := range cacheSizes() {
		fp[k] = v
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's data and unified cache sizes from sysfs.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if typ := read("type"); typ == "Instruction" {
			continue
		}
		name := "l" + read("level")
		if name == "l1" {
			name = "l1d"
		}
		out[name] = read("size")
	}
	return out
}

// writeReport stores the fingerprint and result of one run as JSON.
func writeReport(cfg config, host map[string]any, r *result) error {
	if err := os.MkdirAll(cfg.reportDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"host": host, "result": r, "notes": r.notes,
	}); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)
	return os.WriteFile(filepath.Join(cfg.reportDir, name), buf.Bytes(), 0o644)
}
