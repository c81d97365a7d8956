package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// runtimeTotals are the Go runtime's cumulative allocation and GC counts.
type runtimeTotals struct {
	allocBytes, allocObjects, gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeTotals {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeTotals{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakSampler polls the live heap, as marked by the latest collection, and
// keeps the largest value seen.
type peakSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.peak = max(p.peak, s[0].Value.Uint64())
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends sampling and returns the peak.
func (p *peakSampler) stop() uint64 {
	close(p.stopc)
	p.wg.Wait()
	return p.peak
}
