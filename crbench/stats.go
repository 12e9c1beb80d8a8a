package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTailBeyond is how many samples must lie above a reported tail
// percentile for that percentile to be trusted.
const minTailBeyond = 10

// Summary is a timing series reduced to its median and its highest
// trustworthy tail percentile.
type Summary struct {
	N      int
	Median float64
	// TailPct is the percentile Tail reports: the highest one with at
	// least minTailBeyond samples above it, capped at 99. With fewer
	// than 2*minTailBeyond samples not even the median has that many
	// above it, so no tail is trustworthy and Tail falls back to the
	// median (TailPct 50).
	TailPct float64
	Tail    float64
}

// Summarize reduces xs (in any order) to a Summary. Percentiles use the
// nearest-rank rule on the sorted samples.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var med float64
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	out := Summary{N: n, Median: med, TailPct: 50, Tail: med}
	if n >= 2*minTailBeyond {
		// Highest p with n*(1-p/100) >= minTailBeyond, rounded down to a
		// tenth of a percent.
		p := math.Floor((1-float64(minTailBeyond)/float64(n))*1000) / 10
		p = math.Min(p, 99)
		rank := int(math.Ceil(p / 100 * float64(n)))
		out.TailPct, out.Tail = p, s[rank-1]
	}
	return out
}

// TailLabel names the tail percentile, e.g. "p99" or "p95.5".
func (s Summary) TailLabel() string {
	label := "p" + strconv.FormatFloat(s.TailPct, 'f', -1, 64)
	if s.N < 2*minTailBeyond {
		label += " (too few samples for a tail)"
	}
	return label
}

// Median is the median of xs (0 when empty).
func Median(xs []float64) float64 { return Summarize(xs).Median }

// Host is the machine context recorded with every result.
type Host struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	GOGC       string
}

func hostFacts() Host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
	}
}

func (h Host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s GOGC=%s", h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set (Linux clear_refs code 5). Where that is refused,
// the mark keeps covering the whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// totals, read through runtime/metrics.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(ss[0]), gcCycles: val(ss[1]), gcCPU: val(ss[2])}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}
