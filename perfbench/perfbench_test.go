package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the tests check.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	d := readDeclared(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !validName.MatchString(name) {
			t.Errorf("name %q does not match %s", name, validName)
		}
		if seen[name] {
			t.Errorf("name %q is declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range d.Workloads {
		check(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	for _, m := range d.EndToEnd {
		check(m.Name)
	}
	for _, m := range d.PerLayer {
		check(m.Name)
	}
	for _, m := range append(append([]metricName(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(m.name) {
			t.Errorf("emitted name %q does not match %s", m.name, validName)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits exactly the declared metrics
// with their declared units.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.5, small: true, trace: trace}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			// A request may miss its deadline on a slow or loaded machine
			// (the race detector, say); only wrong results fail the test.
			if !r.Correct || r.Attempted < 1 || r.Failed >= r.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if r.Failed > 0 {
				t.Logf("%s trace=%v: %d of %d requests failed: %v", w.Name, trace, r.Failed, r.Attempted, r.notes["outcomes"])
			}
			want := map[string]string{}
			if trace {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := r.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(r.Metrics), len(want))
			}
			if !trace {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}
