package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/fig12.json from the current DES")

// tiny shrinks a workload and the run around it so every phase runs in
// seconds. The deployment keeps the shipped configuration.
func tiny(w Workload) options {
	w.Keys = 300
	w.Probes = 16
	return options{
		workload:  w,
		seed:      3,
		window:    500 * time.Millisecond,
		warm:      100 * time.Millisecond,
		setups:    2,
		sim:       simSlice{warmup: 5 * time.Millisecond, measure: 15 * time.Millisecond},
		simPasses: 2,
		passes:    passSizes{http: 50, route: 50, decideBatches: 20, store: 20},
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each named metric is present, finite and carries its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots six deployments")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := tiny(w)
			opt.trace = traced
			opt.spansDir = t.TempDir()
			res, stop, err := run(opt, io.Discard)
			stop()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d metrics=%d, want %d",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.Name, traced, d.Name, got, d.Unit)
				}
			}
		}
	}
}

// TestDeterminism checks that a seed fixes every generated input and the
// DES digest, and that another seed changes them.
func TestDeterminism(t *testing.T) {
	type streams struct {
		Rules, Keys, Probes, Decisions, Writes any
	}
	gen := func(w Workload, seed int64) streams {
		in := newInputs(w, seed)
		next := in.keyStream(w, 0)
		var keys []string
		for i := 0; i < 500; i++ {
			keys = append(keys, next())
		}
		write := in.probeStream()
		var writes []any
		for i := 0; i < 200; i++ {
			writes = append(writes, write())
		}
		return streams{in.Rules, in.Keys, in.Probes, keys, writes}
	}
	for _, w := range workloads {
		w.Keys, w.Probes = 2000, 64
		a, b, c := gen(w, 7), gen(w, 7), gen(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", w.Name)
		}
		av, cv := reflect.ValueOf(a), reflect.ValueOf(c)
		for i := 0; i < av.NumField(); i++ {
			if reflect.DeepEqual(av.Field(i).Interface(), cv.Field(i).Interface()) {
				t.Errorf("%s: seeds 7 and 8 gave the same %s", w.Name, av.Type().Field(i).Name)
			}
		}
	}
	sl := simSlice{warmup: 5 * time.Millisecond, measure: 20 * time.Millisecond}
	s1, err := runSim(7, sl, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := runSim(7, sl, nil)
	s3, _ := runSim(8, sl, nil)
	if s1.Digest != s2.Digest || s1.Events != s2.Events {
		t.Errorf("sim seed 7: %d/%s then %d/%s", s1.Events, s1.Digest, s2.Events, s2.Digest)
	}
	if s1.Digest == s3.Digest {
		t.Errorf("sim seeds 7 and 8 share digest %s", s1.Digest)
	}
}

// TestSimGolden checks the recorded DES results for two seeds, and with
// -update records seeds 0..31 again.
func TestSimGolden(t *testing.T) {
	seeds := []int64{1, 2}
	if *update {
		seeds = nil
		for s := int64(0); s < 32; s++ {
			seeds = append(seeds, s)
		}
	}
	if testing.Short() && !*update {
		t.Skip("runs the Fig 12 DES twice")
	}
	out := map[string]simResult{}
	for _, s := range seeds {
		r, err := runSim(s, benchSlice, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[strconv.FormatInt(s, 10)] = r
		if !*update {
			if err := checkSim(s, benchSlice, r); err != nil {
				t.Error(err)
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/fig12.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
}
