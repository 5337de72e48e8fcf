package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: over
// seconds to minutes, the same binary's throughput, CPU per request and
// latencies move together by up to a third. A fixed reference workload,
// timed in short slots between the measured server processes, tracks that
// drift, and the end-to-end timings are scaled by it to what they would
// read on a host of nominal speed (see report in e2e.go). The reference
// uses only the standard library, so no change to the program under test
// moves it.

// nominalRefNs is the reference unit's time on a host of nominal speed:
// about the median over an hour on a 2-vCPU Firecracker VM (Go 1.24,
// linux/amd64).
const nominalRefNs = 280_000

type refRecord struct {
	Op   string    `json:"op"`
	Dims []int     `json:"dims"`
	GPU  string    `json:"gpu"`
	V    []float64 `json:"v"`
}

// refUnit is one unit of reference work: the kinds of work a forecast
// request costs (JSON, string keys and maps, small dense float math, a
// sort, short-lived allocations), in fixed amounts.
func refUnit() {
	sink := 0
	keys := make(map[string]int, 256)
	for i := 0; i < 256; i++ {
		keys["bmm/"+strconv.Itoa(i)+"/H100"] = i
	}
	rec := refRecord{Op: "bmm", Dims: []int{8, 512, 512, 512}, GPU: "H100", V: make([]float64, 16)}
	for i := 0; i < 16; i++ {
		b, _ := json.Marshal(rec)
		var back refRecord
		_ = json.Unmarshal(b, &back)
		sink += len(b) + keys["bmm/"+strconv.Itoa(i)+"/H100"]
	}
	var a, w, c [32][32]float64
	for i := range a {
		for j := range a[i] {
			a[i][j], w[i][j] = float64(i+j), float64(i-j)
		}
	}
	for i := range c {
		for j := range c[i] {
			s := 0.0
			for k := range w {
				s += a[i][k] * w[k][j]
			}
			c[i][j] = s
		}
	}
	xs := make([]int, 512)
	for i := range xs {
		xs[i] = (i * 7919) % 509
	}
	sort.Ints(xs)
	sink += xs[0] + int(c[3][5])
	refSink.Add(int64(sink))
}

// refSink keeps the compiler from dropping the reference work.
var refSink atomic.Int64

// hostSpeed collects reference samples across a run: one slot before each
// measured server process and one after the last.
type hostSpeed struct {
	// Nanoseconds per reference unit, one per slot: wall-clock time, and
	// the process's CPU time.
	wall, cpu []float64
}

// sample runs the reference workload for a slot of d on maxConns
// goroutines, one per CPU as the server's saturation load uses them, and
// records its speed.
func (h *hostSpeed) sample(d time.Duration) {
	var (
		wg    sync.WaitGroup
		units atomic.Int64
	)
	c0 := selfCPU()
	t0 := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				refUnit()
				units.Add(1)
			}
		}()
	}
	wg.Wait()
	n := float64(units.Load())
	h.wall = append(h.wall, float64(time.Since(t0))*float64(maxConns)/n)
	h.cpu = append(h.cpu, float64(selfCPU()-c0)/n)
}

// around is the host's speed relative to nominal while the i-th measured
// process ran, by wall clock and by CPU time: from the mean of the slots
// just before and just after it. The host's speed moves over seconds, and
// a process's figures follow the slots that bracket it far more closely
// than the run's other slots. Below 1 the host ran slow.
func (h *hostSpeed) around(i int) (wall, cpu float64) {
	return 2 * nominalRefNs / (h.wall[i] + h.wall[i+1]), 2 * nominalRefNs / (h.cpu[i] + h.cpu[i+1])
}

// selfCPU is the benchmark process's user and system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
