package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// beyond is the number of samples a percentile must leave above it to be
// reported (choosing-metrics guide §1).
const beyond = 10

// enoughBeyond reports whether n samples leave at least `beyond` above
// their p-th percentile (with a hair of slack for 100-p in floating
// point).
func enoughBeyond(n int, p float64) bool {
	return float64(n)*(100-p) >= beyond*100-1e-6
}

// tailAt returns the p-th percentile when n samples leave at least
// `beyond` above it, else 0 (the metric is then not resolved this run).
func tailAt(vs []float64, p float64) float64 {
	if !enoughBeyond(len(vs), p) {
		return 0
	}
	return percentile(vs, p)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// peakRSSMB is this process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type allocs struct{ objects, bytes uint64 }

// readAllocs reads the cumulative heap allocation counters without
// stopping the world.
func readAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocs{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// heapInuseMB is the heap memory in in-use spans right now; the runs
// sample it after every pass for runtime.heap_peak_mb.
func heapInuseMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
}

// runtimeLayer reports the Go runtime's own counters for this process.
func runtimeLayer(out map[string]float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	if total := s[1].Value.Float64(); total > 0 {
		out["runtime.gc_cpu_frac"] = s[0].Value.Float64() / total
	}
	out["runtime.mutex_wait_s"] = s[2].Value.Float64()
	out["runtime.sched_lat_p50_us"] = histMedian(s[3].Value.Float64Histogram()) * 1e6
}

// histMedian returns the upper bound of the bucket holding the median.
func histMedian(h *metrics.Float64Histogram) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen*2 >= total {
			if b := h.Buckets[i+1]; !math.IsInf(b, 1) {
				return b
			}
			return h.Buckets[i]
		}
	}
	return 0
}
