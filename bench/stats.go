package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"caligo/internal/snapshot"
)

// Hist is a log-linear histogram in the style of Circllhist: a positive
// value lands in the bin of its first four significant decimal digits,
// so a bin spans at most 0.1% of its lower edge whatever the magnitude.
// Two histograms merge by adding bin counts, and a quantile is read by
// interpolating linearly inside the bin that holds it.
type Hist struct {
	bins map[int32]uint64
	n    uint64
}

// binOf returns the bin key of v. Keys order like the values they hold;
// values below 1 share key 0.
func binOf(v float64) int32 {
	if !(v >= 1) {
		return 0
	}
	e := int(math.Floor(math.Log10(v)))
	m := int(v / math.Pow10(e-3))
	// correct the rounding of Log10 and the division at decade edges
	for m < 1000 {
		e--
		m = int(v / math.Pow10(e-3))
	}
	for m > 9999 {
		e++
		m = int(v / math.Pow10(e-3))
	}
	return int32((e+1)*10000 + m)
}

// binRange returns the lower edge and the width of the bin with key k.
func binRange(k int32) (lo, width float64) {
	if k == 0 {
		return 0, 1
	}
	e := int(k)/10000 - 1
	m := int(k) % 10000
	w := math.Pow10(e - 3)
	return float64(m) * w, w
}

// Add records one sample.
func (h *Hist) Add(v float64) {
	if h.bins == nil {
		h.bins = make(map[int32]uint64)
	}
	h.bins[binOf(v)]++
	h.n++
}

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	for k, c := range o.bins {
		if h.bins == nil {
			h.bins = make(map[int32]uint64)
		}
		h.bins[k] += c
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// Quantile returns the q-quantile (0 < q < 1). ok is false when fewer than
// minBeyond samples lie beyond it, so the tail is not backed by data.
func (h *Hist) Quantile(q float64) (v float64, ok bool) {
	if h.n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	n := float64(h.n)
	if n-math.Ceil(q*n) < minBeyond {
		return 0, false
	}
	keys := make([]int32, 0, len(h.bins))
	for k := range h.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	target := q * n
	cum := 0.0
	for _, k := range keys {
		c := float64(h.bins[k])
		if cum+c >= target {
			lo, w := binRange(k)
			return lo + (target-cum)/c*w, true
		}
		cum += c
	}
	lo, w := binRange(keys[len(keys)-1])
	return lo + w, true
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapAllocs returns the cumulative bytes the Go heap has allocated.
// runtime/metrics reads it without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapMallocs returns the cumulative number of heap objects allocated.
func heapMallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLive returns the bytes held by heap objects, live or not yet swept.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakHeap samples the heap every period until stop, keeping the peak.
type peakHeap struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startPeakHeap(period time.Duration) *peakHeap {
	p := &peakHeap{stop: make(chan struct{}), done: make(chan struct{}), peak: heapLive()}
	go func() {
		defer close(p.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				if h := heapLive(); h > p.peak {
					p.peak = h
				}
			}
		}
	}()
	return p
}

// Stop ends sampling and returns the peak in bytes.
func (p *peakHeap) Stop() uint64 {
	close(p.stop)
	<-p.done
	if h := heapLive(); h > p.peak {
		p.peak = h
	}
	return p.peak
}

// meter accumulates one untraced run's end-to-end measurements. Its
// methods are safe for concurrent use by the load goroutines.
type meter struct {
	mu        sync.Mutex
	lat       Hist               // per-op latency, ns
	ops       uint64             // operations completed
	attempted uint64             // operations attempted
	failed    uint64             // operations that returned an error
	busy      time.Duration      // wall time of the timed windows
	allocs    uint64             // heap bytes allocated inside the timed windows
	kinds     map[string]*opKind // the same per kind of operation timed by timeOp
	wrong     []string           // disagreements with the oracle
}

// opKind tallies the completed operations of one kind, such as the
// queries or the appends of a mix.
type opKind struct {
	lat    Hist // latency, ns
	n      uint64
	allocs uint64 // heap bytes allocated by them
}

// fail records an operation that returned an error.
func (m *meter) fail(n uint64) {
	m.mu.Lock()
	m.attempted += n
	m.failed += n
	m.mu.Unlock()
}

// done records n completed operations.
func (m *meter) done(n uint64) {
	m.mu.Lock()
	m.attempted += n
	m.ops += n
	m.mu.Unlock()
}

// window adds one timed window and the bytes allocated in it.
func (m *meter) window(d time.Duration, allocs uint64) {
	m.mu.Lock()
	m.busy += d
	m.allocs += allocs
	m.mu.Unlock()
}

// record adds one completed operation of the given kind that took d and
// allocated allocs heap bytes.
func (m *meter) record(kind string, d time.Duration, allocs uint64) {
	ns := float64(d.Nanoseconds())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	m.ops++
	m.busy += d
	m.allocs += allocs
	m.lat.Add(ns)
	if m.kinds == nil {
		m.kinds = make(map[string]*opKind)
	}
	k := m.kinds[kind]
	if k == nil {
		k = &opKind{}
		m.kinds[kind] = k
	}
	k.lat.Add(ns)
	k.n++
	k.allocs += allocs
}

// kind returns the tally of one kind of operation (empty when none ran).
func (m *meter) kind(name string) *opKind {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k := m.kinds[name]; k != nil {
		return k
	}
	return &opKind{}
}

// merge adds a histogram of per-op latency samples.
func (m *meter) merge(h *Hist) {
	m.mu.Lock()
	m.lat.Merge(h)
	m.mu.Unlock()
}

// mismatch records a disagreement with the oracle.
func (m *meter) mismatch(msg string) {
	m.mu.Lock()
	if len(m.wrong) < 20 {
		m.wrong = append(m.wrong, msg)
	} else if len(m.wrong) == 20 {
		m.wrong = append(m.wrong, "...")
	}
	m.mu.Unlock()
}

// putQuantile sets out[name] to h's q-quantile divided by div, when at
// least minBeyond samples lie beyond it.
func putQuantile(out map[string]float64, name string, h *Hist, q, div float64) {
	if v, ok := h.Quantile(q); ok {
		out[name] = v / div
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no work of that kind).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeOp times one operation of the given kind into m and checks its
// rows with check. It
// returns the operation's time and error. The operation starts from a
// collected heap, as a fresh cali-query process would, so where a
// collection falls does not differ from one run to the next.
func timeOp(m *meter, kind string, op func() ([]snapshot.FlatRecord, error), check func([]snapshot.FlatRecord) error) (time.Duration, error) {
	runtime.GC()
	a0 := heapAllocs()
	t0 := time.Now()
	rows, err := op()
	d := time.Since(t0)
	allocs := heapAllocs() - a0
	if err != nil {
		m.fail(1)
		return d, err
	}
	m.record(kind, d, allocs)
	if check != nil {
		if err := check(rows); err != nil {
			m.mismatch(err.Error())
		}
	}
	return d, nil
}
