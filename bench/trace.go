package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval of the traced run. The spans of one document
// share Doc; Parent is the index of the enclosing span within the same
// client's list, -1 for a document's root. A shadow span is a separately
// timed call of a pure inner function on the same input, made after the
// root span closed: it prices a layer without sitting on the document's
// path.
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Doc    int32  `json:"doc"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// acc sums observations of one per-layer figure.
type acc struct {
	sum float64
	n   int64
}

// tracer records the spans and per-layer sums of one client. Spans stay in
// memory (up to a cap; sums keep running past it) and are written out when
// the benchmark ends.
type tracer struct {
	client int
	max    int
	spans  []span
	doc    int32
	sums   map[string]*acc
	rootNs int64 // total root-span time
	selfNs int64 // root-span time no child span covers
}

func newTracer(client, max int) *tracer {
	return &tracer{client: client, max: max, sums: make(map[string]*acc)}
}

// open starts a document's root span.
func (t *tracer) open(name string, start int64) int32 {
	t.doc++
	return t.add(name, -1, start, 0, false)
}

func (t *tracer) add(name string, parent int32, start, end int64, shadow bool) int32 {
	if len(t.spans) >= t.max {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Client: t.client, Doc: t.doc, Parent: parent, Start: start, End: end, Shadow: shadow})
	return int32(len(t.spans) - 1)
}

// child records a composite call made inside the root span and adds its
// duration, in µs, to the per-layer figure of the same name.
func (t *tracer) child(name string, root int32, start, end int64) {
	if root >= 0 {
		t.add(name, root, start, end, false)
	}
	t.obs(name, float64(end-start)/1e3)
}

// shadow records a shadow call the same way.
func (t *tracer) shadow(name string, start, end int64) {
	t.add(name, -1, start, end, true)
	t.obs(name, float64(end-start)/1e3)
}

// close ends a root span; covered is the time its child spans account for.
func (t *tracer) close(root int32, start, end, covered int64) {
	if root >= 0 {
		t.spans[root].End = end
	}
	t.rootNs += end - start
	t.selfNs += end - start - covered
}

// obs adds one observation to a per-layer figure.
func (t *tracer) obs(name string, v float64) {
	a := t.sums[name]
	if a == nil {
		a = &acc{}
		t.sums[name] = a
	}
	a.sum += v
	a.n++
}

// layerSums merges the per-layer sums of the traced clients.
type layerSums map[string]acc

func mergeTracers(cls []*client) (layerSums, int64, int64) {
	out := make(layerSums)
	var rootNs, selfNs int64
	for _, cl := range cls {
		if cl.tr == nil {
			continue
		}
		for k, a := range cl.tr.sums {
			m := out[k]
			m.sum += a.sum
			m.n += a.n
			out[k] = m
		}
		rootNs += cl.tr.rootNs
		selfNs += cl.tr.selfNs
	}
	return out, rootNs, selfNs
}

// mean is the mean of the observations of name; 0 when the layer never ran.
func (s layerSums) mean(name string) float64 {
	a := s[name]
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func (s layerSums) total(name string) float64 { return s[name].sum }
func (s layerSums) count(name string) int64   { return s[name].n }

// traceFile is what lands in <out>/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Tape     string `json:"tape_sha256"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, sum string, cls []*client) error {
	tf := traceFile{Workload: workload, Seed: seed, Tape: sum}
	for _, cl := range cls {
		if cl.tr != nil {
			tf.Spans = append(tf.Spans, cl.tr.spans...)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
