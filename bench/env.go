package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// machine is the shape of the box a result was taken on; it is printed
// with every result so numbers are never compared across shapes unawares.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	FS         string `json:"work_fs"`
}

func machineShape(workDir string) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPU:        "unknown",
		FS:         fsType(workDir),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The pipeline's checkout is not a git repository; there the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// procField reads a "Key: value [unit]" line of a /proc/self file.
func procField(file, key string) float64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fs := strings.Fields(v)
		if len(fs) == 0 {
			return 0
		}
		n, _ := strconv.ParseFloat(fs[0], 64)
		return n
	}
	return 0
}

// rssPeakMB is VmHWM, the process's peak resident set so far.
func rssPeakMB() float64 { return procField("status", "VmHWM") / 1024 }

// bytesWritten is the total the process has passed to write calls.
func bytesWritten() float64 { return procField("io", "wchar") }

// runtimeSample is a reading of the allocator and collector counters.
type runtimeSample struct {
	mallocs, allocBytes uint64
	numGC               uint32
	pauses              [256]uint64
	gcCPU, totalCPU     float64
	heapAlloc           uint64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs, heapAlloc: ms.HeapAlloc}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// runtimeDelta turns two readings around a window of docs documents into
// the runtime.* figures.
func runtimeDelta(a, b runtimeSample, docs int64, out *report) {
	if docs <= 0 {
		docs = 1
	}
	out.set("runtime.allocs_per_doc", float64(b.mallocs-a.mallocs)/float64(docs))
	out.set("runtime.alloc_kb_per_doc", float64(b.allocBytes-a.allocBytes)/1024/float64(docs))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out.set("runtime.gc_cpu_share", (b.gcCPU-a.gcCPU)/cpu)
	}
	var maxPause uint64
	cycles := b.numGC - a.numGC
	if cycles > 256 {
		cycles = 256
	}
	for i := uint32(0); i < cycles; i++ {
		// PauseNs is a ring: cycle n's pause is at (n+255)%256.
		if p := b.pauses[(b.numGC-i+255)%256]; p > maxPause {
			maxPause = p
		}
	}
	out.set("runtime.gc_pause_max_us", float64(maxPause)/1e3)
	out.set("runtime.heap_live_mb", float64(b.heapAlloc)/(1<<20))
}
