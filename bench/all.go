package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// savedRun is one run as `bench all -save` keeps it for `bench compare`.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// savedSet is the file `bench all -save F` writes and appends to.
type savedSet struct {
	Machine machine    `json:"machine"`
	Runs    []savedRun `json:"runs"`
}

// runAll runs every workload in a child process of its own, untraced then
// traced, and prints every metric by name with its unit.
func runAll(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var runs int
	var save string
	var untraced bool
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg.register(fs)
	fs.IntVar(&runs, "runs", 1, "times to run each workload")
	fs.StringVar(&save, "save", "", "append the results to this file, for bench compare")
	fs.BoolVar(&untraced, "untraced", false, "skip the traced runs: end-to-end metrics only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	set := savedSet{Machine: machineShape(".")}
	if save != "" {
		if data, err := os.ReadFile(save); err == nil {
			if err := json.Unmarshal(data, &set); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", save, err)
				return 2
			}
		}
	}
	shape, _ := json.Marshal(set.Machine)
	fmt.Fprintf(stdout, "machine %s\n", shape)
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				if trace && untraced {
					continue
				}
				res, err := child(self, cfg, w.name, trace, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 2
				}
				failed = failed || !res.Correct
				set.Runs = append(set.Runs, savedRun{Workload: w.name, Seed: cfg.seed, Trace: trace, result: *res})
				printResult(stdout, w.name, trace, res)
			}
		}
	}
	if save != "" {
		data, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(save, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// child runs one workload in a process of its own and parses the result
// from the last line of its standard output.
func child(self string, cfg config, workload string, trace bool, stderr io.Writer) (*result, error) {
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(boolInt(trace)),
		"-workdir", cfg.workDir, "-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, err // exit code 1 is an oracle failure: the result line is still there
	}
	last := bytes.TrimSpace(outBytes)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func printResult(w io.Writer, workload string, trace bool, res *result) {
	specs, kind := endToEnd, "end-to-end"
	if trace {
		specs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "\n%s  %s  correct=%v attempted=%d failed=%d\n", workload, kind, res.Correct, res.Attempted, res.Failed)
	for _, m := range specs {
		v := res.Metrics[m.name]
		if trace && v.Value == 0 {
			continue // the layer is not on this workload's path
		}
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
}
