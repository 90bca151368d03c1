package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The tape is a pure function of (workload, seed): same seed, same bytes.
func TestTapeDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := w.make(7, 20)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := w.make(7, 20)
		c, _ := w.make(8, 20)
		if a.sum() != b.sum() {
			t.Errorf("%s: two tapes from seed 7 differ", w.name)
		}
		if a.sum() == c.sum() {
			t.Errorf("%s: seeds 7 and 8 give the same tape", w.name)
		}
	}
}

func TestRefetchPlanMix(t *testing.T) {
	tp, err := genSteady(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	rt := tp.(*refetchTape)
	n := len(rt.urls)
	for r, rd := range rt.plan {
		var mix [3]int
		seen := make(map[uint16]bool)
		for i, p := range rd.order {
			seen[p] = true
			mix[rd.action[i]]++
		}
		if len(seen) != n || mix[actSame] != n*60/100 || mix[actReflow] != n*25/100 {
			t.Fatalf("round %d: %d distinct pages of %d, mix %v", r, len(seen), n, mix)
		}
	}
	// the six renderings of a page: reflows keep the content, updates do not
	if nextForm(0, actSame) != 0 || nextForm(0, actReflow) != 1 || nextForm(2, actReflow) != 0 || nextForm(1, actUpdate) != 3 || nextForm(4, actUpdate) != 0 {
		t.Error("nextForm does not walk the renderings as documented")
	}
}

// Every workload at 1/20 scale with 1 s windows, untraced and traced: the
// oracle must hold and every metric BENCHMARK.json promises must be there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second or two")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: defaultSeed, seconds: 1, trace: trace, smoke: true,
				workDir: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q", w.name, trace, m.name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, v.Value)
				}
			}
			if trace {
				if u := res.Metrics["trace.unattributed_pct"].Value; u > 10 {
					t.Errorf("%s: %.1f%% of root-span time is unattributed", w.name, u)
				}
			}
		}
	}
}

// BENCHMARK.json must say what spec.go says, within the pipeline's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(data), b.RunSeconds, b.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := make(map[string]bool)
	unique := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from spec %q (or why too long)", i, w.Name, workloads[i].name)
		}
	}
	check := func(got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d metrics, spec has %d", len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			s := want[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q differs from spec %+v", m.Name, s)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != s.bound || *m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("metric %q: bound %v, spec %v", m.Name, m.Bound, s.bound)
			}
		}
	}
	check(b.EndToEnd, endToEnd, true)
	check(b.PerLayer, perLayer, false)
	var setup *metricSpec
	for i := range endToEnd {
		if endToEnd[i].name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatal("no setup_s in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if m.bound > setup.bound {
			t.Errorf("%s has a larger bound than setup_s", m.name)
		}
	}
}
