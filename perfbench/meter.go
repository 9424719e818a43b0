package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSample is the process-wide state read at the edges of the timed
// window.
type procSample struct {
	cpu      time.Duration // user + system
	gcCPU    time.Duration // the runtime's estimate of CPU spent in GC
	allocs   uint64        // cumulative heap bytes allocated
	gcs      uint64        // completed GC cycles
	syscalls uint64        // read and write system calls (/proc/self/io)
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readProc() procSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	return procSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    time.Duration(s[2].Value.Float64() * float64(time.Second)),
		allocs:   s[0].Value.Uint64(),
		gcs:      s[1].Value.Uint64(),
		syscalls: readSyscalls(),
	}
}

// readSyscalls returns the process's read plus write system calls, 0
// where /proc/self/io is unavailable.
func readSyscalls() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n uint64
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		if c, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64); err == nil {
			n += c
		}
	}
	return n
}

// heapInUse is the bytes held by heap objects, live or not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler polls the heap and the workload's depth gauges while the timed
// window runs. It keeps the gauges' maxima and the heap's time average: the
// heap's peak depends on where GC cycles and snapshot truncations happen
// to fall in the window and does not repeat from run to run.
type sampler struct {
	gauges func() (mempool, lane int)

	stop chan struct{}
	wg   sync.WaitGroup

	heapSum      float64
	heapSamples  int
	mempoolMax   int
	laneDepthMax int
}

const samplePeriod = 20 * time.Millisecond

func startSampler(gauges func() (int, int)) *sampler {
	s := &sampler{gauges: gauges, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			s.poll()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	s.heapSum += float64(heapInUse())
	s.heapSamples++
	mp, ld := s.gauges()
	s.mempoolMax = max(s.mempoolMax, mp)
	s.laneDepthMax = max(s.laneDepthMax, ld)
}

// finish stops the sampler and waits for it; its results are then safe to
// read.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// heapMB is the mean heap in use over the window.
func (s *sampler) heapMB() float64 { return ratio(s.heapSum, float64(s.heapSamples)) / (1 << 20) }

// windowClock fixes a run's timeline: load starts at loadStart, warms up,
// and the timed window is [start, end).
type windowClock struct {
	loadStart, start, end time.Time
}

func newWindowClock(warmup, window time.Duration) windowClock {
	now := time.Now()
	return windowClock{loadStart: now, start: now.Add(warmup), end: now.Add(warmup + window)}
}

func (w windowClock) in(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w windowClock) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// measureWindow sleeps through the warm-up, then samples the process over
// the timed window, returning the deltas and the sampler's maxima.
func measureWindow(w windowClock, gauges func() (int, int), atStart, atEnd func()) (procSample, *sampler) {
	time.Sleep(time.Until(w.start))
	atStart()
	p0 := readProc()
	s := startSampler(gauges)
	time.Sleep(time.Until(w.end))
	p1 := readProc()
	s.finish()
	atEnd()
	return procSample{
		cpu: p1.cpu - p0.cpu, gcCPU: p1.gcCPU - p0.gcCPU,
		allocs: p1.allocs - p0.allocs, gcs: p1.gcs - p0.gcs, syscalls: p1.syscalls - p0.syscalls,
	}, s
}
