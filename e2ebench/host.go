package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// host is the fingerprint printed with every result, so a number can be
// read against the machine that produced it.
type host struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibNS    float64 `json:"calibration_ns_per_op"`
	// Capacity[k-1] is the throughput of k workers running the calibration
	// kernel at once, relative to one worker: what k shards can gain at best.
	Capacity []float64 `json:"capacity"`
}

// The calibration kernel sorts a fixed pseudo-random slice of calibrationLen
// int32s with the standard library; one op is one such sort. It uses no
// hetlb code, so no change to the program moves it, and like the balancing
// kernels it is branchy, compare-heavy and cache-resident.
const calibrationLen = 1024

// A calibration run is calibrationReps timings of calibrationOps ops each
// (≈1.5 ms in all); it reports the fastest. A timing that a garbage
// collection cycle or a scheduler preemption lands in is slower, and the
// minimum discards it, so the run reads how fast the core itself is.
const (
	calibrationOps  = 5
	calibrationReps = 8
)

var calibrationSrc = func() []int32 {
	s := make([]int32, calibrationLen)
	x := uint32(2463534242)
	for i := range s {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s[i] = int32(x)
	}
	return s
}()

// calibrate returns the calibration kernel's ns/op in buf: the fastest of
// reps timings of ops ops each. One untimed op first brings buf and the
// sort's code back into cache after whatever ran before.
func calibrate(buf []int32, ops, reps int) float64 {
	copy(buf, calibrationSrc)
	slices.Sort(buf)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for k := 0; k < ops; k++ {
			copy(buf, calibrationSrc)
			slices.Sort(buf)
		}
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(ops)
}

// capacity returns the throughput of k workers running the calibration
// kernel at once relative to one worker's, from the best of five timings of
// each (≈20 ms a timing): what k shards can gain at best.
func capacity(k int) float64 {
	const ops = 500
	timeWorkers := func(k int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < k; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					calibrate(make([]int32, calibrationLen), ops, 1)
				}()
			}
			wg.Wait()
			best = min(best, time.Since(t0))
		}
		return best
	}
	return float64(k) * float64(timeWorkers(1)) / float64(timeWorkers(k))
}

func fingerprint() host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibNS:    calibrate(make([]int32, calibrationLen), calibrationOps, calibrationReps),
		Capacity:   []float64{1},
	}
	for k := 2; k <= h.NProc; k++ {
		h.Capacity = append(h.Capacity, capacity(k))
	}
	return h
}

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
