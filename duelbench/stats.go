package main

import (
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics, and the sample count.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1], len(s)
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), len(s)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapSampler records the peak live heap (as marked by the last GC) while
// it runs, window by window.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peak  atomic.Uint64 // of the current window
	peaks []float64     // MB, of the windows cut so far
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak.Store(readMetric("/gc/heap/live:bytes"))
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readMetric("/gc/heap/live:bytes")
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// cut ends the current window.
func (h *heapSampler) cut() {
	h.observe()
	h.peaks = append(h.peaks, float64(h.peak.Swap(readMetric("/gc/heap/live:bytes")))/(1<<20))
}

// reset starts the current window afresh from the live heap now.
func (h *heapSampler) reset() {
	h.peak.Store(readMetric("/gc/heap/live:bytes"))
}

// finish stops the sampler and returns the median of the windows' peaks
// in MB (of the whole run if no window was cut): one GC that marks at the
// worst moment of one window does not move it.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	if len(h.peaks) == 0 {
		h.cut()
	}
	return median(h.peaks)
}

// windowed is the median over windows of each window's p-th percentile,
// and the total sample count. A stall of the host inflates the tail of the
// windows it falls in, not of the run.
func windowed(wins [][]float64, p float64) (float64, int) {
	var per []float64
	n := 0
	for _, w := range wins {
		if len(w) > 0 {
			v, _ := percentile(w, p)
			per = append(per, v)
			n += len(w)
		}
	}
	if n == 0 {
		return 0, 0
	}
	return median(per), n
}
