package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict classifies the change of one end-to-end metric on one workload
// from set A to set B against the metric's bound. A spread (distance
// between the quartiles over the median) wider than the bound on either
// side means the runs cannot resolve a change of that size.
func verdict(m metricSpec, a, b []float64) (delta float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / ma
	worse := delta
	if m.better == "higher" {
		worse = -delta
	}
	switch {
	case spread(a) > m.bound || spread(b) > m.bound:
		v = "unresolved"
	case worse > m.bound:
		v = "worse"
	case worse < -m.bound:
		v = "better"
	default:
		v = "within-bound"
	}
	return delta, v
}

func loadSet(path string) (*savedSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s savedSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over the runs of a set.
func (s *savedSet) values(workload, metric string, trace bool) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// runCompare prints, per workload and metric, the median and quartiles of
// each set and the change between them; end-to-end metrics get a verdict.
// It exits 1 when any end-to-end metric is worse or unresolved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareSets(a, b, stdout)
}

func compareSets(a, b *savedSet, w io.Writer) int {
	ma, _ := json.Marshal(a.Machine)
	mb, _ := json.Marshal(b.Machine)
	fmt.Fprintf(w, "A: %s\nB: %s\n", ma, mb)
	bad := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n  %-28s %-5s %38s %38s %8s  %s\n", wl.name, "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "delta", "verdict")
		for _, group := range []struct {
			specs []metricSpec
			trace bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, m := range group.specs {
				va, vb := a.values(wl.name, m.name, group.trace), b.values(wl.name, m.name, group.trace)
				if len(va) == 0 || len(vb) == 0 || (group.trace && median(va) == 0 && median(vb) == 0) {
					continue
				}
				delta, v := 0.0, "-"
				if group.trace {
					if base := median(va); base != 0 {
						delta = (median(vb) - base) / base
					}
				} else if delta, v = verdict(m, va, vb); v == "worse" || v == "unresolved" {
					bad++
				}
				fmt.Fprintf(w, "  %-28s %-5s %38s %38s %+7.1f%%  %s\n", m.name, m.unit, summary(va), summary(vb), 100*delta, v)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d end-to-end metrics worse or unresolved\n", bad)
		return 1
	}
	return 0
}

func summary(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(vs))
}
