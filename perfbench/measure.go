package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics. It is exact over every sample (no
// bucketing); xs is sorted in place. An empty sample yields 0.
func quantile[T ~int64 | ~float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns freed memory to the kernel and resets the
// process's peak resident set size (VmHWM) to its current size, so that
// peakRSSSinceResetMB reads the peak of what runs next. It reports false
// where the kernel does not allow the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSSinceResetMB is the peak resident set size in MiB since the last
// resetPeakRSS, read from VmHWM; 0 when unavailable.
func peakRSSSinceResetMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// offHeap returns an empty buffer with room for n values of T, mapped
// outside the Go heap; T must hold no pointers. The benchmark's own
// bookkeeping then adds nothing to the heap the garbage collector paces
// the program by. With resident, every page is touched up front, so the
// buffer adds a constant to the process's resident memory, whatever the
// allocator would have reused or zeroed; without, pages become resident
// as they are filled. free unmaps it.
func offHeap[T any](n int, resident bool) (buf []T, free func(), err error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	if resident {
		for i := 0; i < len(b); i += os.Getpagesize() {
			b[i] = 1
		}
	}
	buf = unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	return buf[:0], func() { syscall.Munmap(b) }, nil
}

// settle collects garbage before a timed section so every repetition
// starts from the same heap state.
func settle() { runtime.GC() }

// quiet picks, by index, the measurements to keep, given the share of
// host CPU time the hypervisor stole during each (stolen[i] < 0: unknown,
// kept). It keeps those with at most stealLimitPct, for a measurement
// taken while the neighbours held the CPU measures the neighbours. When
// fewer than a quarter pass, as in a spell that lasts the whole run, it
// keeps the quarter with the least stolen.
func quiet(stolen []float64) []int {
	var keep []int
	for i, pct := range stolen {
		if pct <= stealLimitPct {
			keep = append(keep, i)
		}
	}
	if len(keep) > 0 && 4*len(keep) >= len(stolen) {
		return keep
	}
	order := make([]int, len(stolen))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stolen[a], stolen[b]) })
	return order[:min(len(order), max(1, (len(order)+3)/4))]
}

// quietMedian is the median of the values of xs that quiet keeps, and how
// many it kept.
func quietMedian(xs, stolen []float64) (v float64, used int) {
	keep := quiet(stolen)
	vals := make([]float64, len(keep))
	for j, i := range keep {
		vals[j] = xs[i]
	}
	return median(vals), len(vals)
}

// hostInfo is the fingerprint every report carries, so numbers from
// different hosts are never compared by accident.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		h.LoadAvg1 = float64(si.Loads[0]) / 65536 // SI_LOAD_SHIFT
	}
	return h
}

// cpuTicks reads the host's aggregate CPU time from /proc/stat: the
// ticks stolen by a hypervisor and the total. Zero when unavailable.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the first "model name" line the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// logf writes a progress line to standard error; standard output is
// reserved for the report.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
