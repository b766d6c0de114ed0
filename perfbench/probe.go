package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Runtime probes read from outside the program: getrusage for CPU time,
// runtime/metrics for allocation and GC counts, and a sampling goroutine
// for the peak live heap. None of them touches the checker's code paths.

const (
	liveHeap   = "/gc/heap/live:bytes"
	allocBytes = "/gc/heap/allocs:bytes"
	allocObjs  = "/gc/heap/allocs:objects"
	gcCycles   = "/gc/cycles/total:gc-cycles"

	// sampleEvery is the heap sampler's period. The live-heap figure only
	// changes when a GC cycle completes, and once the heap has grown a
	// check completes at most a few dozen cycles a second, so this period
	// sees every value. A 2 ms period cost go-check up to 9% wall time on
	// a 2-vCPU virtual machine.
	sampleEvery = 10 * time.Millisecond
)

// usage is what one probe window measured.
type usage struct {
	CPU      time.Duration // user+sys CPU of the whole process
	PeakHeap uint64        // peak live heap in bytes
	Alloc    uint64        // bytes allocated
	Allocs   uint64        // objects allocated
	GCs      uint64        // completed GC cycles
}

// probe measures one check. start collects garbage first, so every window
// begins from the same live heap.
type probe struct {
	ru0  syscall.Rusage
	m0   []metrics.Sample
	stop chan struct{}
	done chan uint64
}

func newSamples() []metrics.Sample {
	return []metrics.Sample{{Name: liveHeap}, {Name: allocBytes}, {Name: allocObjs}, {Name: gcCycles}}
}

func startProbe() *probe {
	runtime.GC()
	p := &probe{m0: newSamples(), stop: make(chan struct{}), done: make(chan uint64, 1)}
	metrics.Read(p.m0)
	go sampleHeap(p.stop, p.done)
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru0)
	return p
}

// sampleHeap records the largest live-heap reading until stop closes, then
// sends it on done.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	s := []metrics.Sample{{Name: liveHeap}}
	var peak uint64
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			done <- peak
			return
		case <-t.C:
		}
	}
}

// finish closes the window. The peak is the largest of the sampler's
// readings and the live heap at the end of the window.
func (p *probe) finish() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	m := newSamples()
	metrics.Read(m)
	u := usage{
		CPU:      tv(ru.Utime) - tv(p.ru0.Utime) + tv(ru.Stime) - tv(p.ru0.Stime),
		PeakHeap: m[0].Value.Uint64(),
		Alloc:    m[1].Value.Uint64() - p.m0[1].Value.Uint64(),
		Allocs:   m[2].Value.Uint64() - p.m0[2].Value.Uint64(),
		GCs:      m[3].Value.Uint64() - p.m0[3].Value.Uint64(),
	}
	close(p.stop)
	if peak := <-p.done; peak > u.PeakHeap {
		u.PeakHeap = peak
	}
	return u
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}
