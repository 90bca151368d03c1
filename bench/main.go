// Command bench is the repository's benchmark: six named workloads over the
// public functions of the monitoring system, end-to-end metrics from an
// untraced run, per-layer metrics from a traced one, and an oracle on every
// output. BENCHMARK.json at the repository root names the workloads and the
// metrics; README.md in this directory defines them.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	bench run W [-seed N] [-seconds S] [-trace 1]         the same, spelled as a subcommand
//	bench all [-seed N] [-runs K] [-save F] [-untraced]   every workload, untraced and traced, as a table
//	bench compare A.json B.json                           two saved sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const defaultSeed = 1

// traceCap bounds the spans kept for the trace file; per-layer sums keep
// running past it.
const traceCap = 60000

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "all":
			return runAll(args[1:], stdout, stderr)
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "run":
			if len(args) < 2 {
				fmt.Fprintln(stderr, "usage: bench run <workload> [-seed N] [-seconds S] [-trace 1]")
				return 2
			}
			args = append([]string{"--workload", args[1]}, args[2:]...)
		}
	}
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg.register(fs)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Func("trace", "1 runs the traced run and reports per-layer metrics, 0 the untraced run and end-to-end metrics", func(s string) error {
		switch s {
		case "1", "true":
			cfg.trace = true
		case "0", "false":
			cfg.trace = false
		default:
			return fmt.Errorf("want 0 or 1")
		}
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config is what one run is told.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string
	outDir   string
}

func (c *config) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", defaultSeed, "tape seed; the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 12, "length of the measured window")
	fs.BoolVar(&c.smoke, "smoke", false, "run at 1/20 scale (the oracle still runs)")
	fs.StringVar(&c.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for durable state, removed afterwards")
	fs.StringVar(&c.outDir, "out", filepath.Join("bench", "out"), "directory for trace files")
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// runWorkload is one run: build the tape, set the system up, warm it, run
// the window (or, traced, an untraced and a traced half-window), check the
// oracle, report.
func runWorkload(cfg config, stderr io.Writer) (*result, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	work := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	scale := 1
	if cfg.smoke {
		scale = 20
	}
	t0 := now()
	tp, err := spec.make(cfg.seed, scale)
	if err != nil {
		return nil, fmt.Errorf("tape: %w", err)
	}
	genS := seconds(now() - t0)
	shape, _ := json.Marshal(machineShape(work))
	fmt.Fprintf(stderr, "bench: %s seed=%d tape sha256=%s\nbench: machine %s\n", spec.name, cfg.seed, tp.sum(), shape)

	// Set-up, several times over in the untraced run: setup_s is the median,
	// and the last system built is the one measured.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := now()
		if inst, err = tp.open(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(now()-t0))
	}
	defer inst.close()

	out := newReport()
	count := func(ph *phase) {
		a, f := ph.docs()
		out.attempted += a
		out.failed += f
	}
	count(runPhase(inst, 0, inst.warmup(), false))
	rss := rssPeakMB()
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		win := runPhase(inst, window, 0, false)
		count(win)
		inst.finish(out)
		st := win.stats()
		out.set("docs_per_s", st.docsPerS)
		out.set("doc_p50_us", st.p50us)
		out.set("doc_p90_us", st.p90us)
		out.set("rss_peak_mb", rss)
		out.set("setup_s", median(setups))
		fmt.Fprintf(stderr, "bench: %d documents in the window, per slice %.0f docs/s\n", st.samples, st.rates)
		return out.result(endToEnd, stderr), nil
	}

	// Traced run: an untraced half-window first — the reference the tracing
	// overhead is measured against, and the source of the delays and runtime
	// figures that tracing would distort — then the traced half.
	rt0 := readRuntime()
	plain := runPhase(inst, window/2, 0, false)
	rt1 := readRuntime()
	count(plain)
	inst.side(out)
	docs, _ := plain.docs()
	runtimeDelta(rt0, rt1, docs, out)
	if p50, p99 := plain.notifyQuantiles(); p50 > 0 {
		out.set("notify_p50_us", p50)
		out.set("diag.notify_p99_us", p99)
	}
	traced := runPhase(inst, window/2, 0, true)
	count(traced)
	inst.layers(traced.clients, out)
	inst.finish(out)
	base := plain.stats()
	out.set("diag.doc_p99_us", base.p99us)
	if base.p50us > 0 {
		out.set("trace.overhead_pct", 100*(traced.stats().p50us-base.p50us)/base.p50us)
	}
	out.set("webgen.gen_s", genS)
	out.set("webgen.page_bytes", tp.pageBytes())
	if err := writeTrace(cfg.outDir, spec.name, cfg.seed, tp.sum(), traced.clients); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	return out.result(perLayer, stderr), nil
}

// result renders the report as the run's last line: exactly the metrics of
// specs, zero where the workload has no such figure.
func (r *report) result(specs []metricSpec, stderr io.Writer) *result {
	for _, n := range r.notes {
		fmt.Fprintln(stderr, "bench: FAILED:", n)
	}
	res := &result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]value, len(specs))}
	for _, m := range specs {
		res.Metrics[m.name] = value{Value: r.metrics[m.name], Unit: m.unit}
	}
	return res
}
