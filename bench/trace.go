package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed public call (or one timed pass of calls) into a
// layer. Parent is the id of the span that caused it, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	N      int64         `json:"n,omitempty"` // work items the span covered
}

// recorder keeps spans in memory for the traced run; they are written out
// when the run ends. It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id, recording the n work items it covered.
func (r *recorder) end(id int, n int64) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].N = n
	r.mu.Unlock()
}

// add records an already-measured span.
func (r *recorder) add(name string, parent int, start time.Time, d time.Duration, n int64) int {
	s := start.Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: s, End: s + d, N: n})
	return len(r.spans)
}

// layerTotal sums, per span name, the wall time, the self time and the
// work items of every closed span.
type layerTotal struct {
	Count int
	Total time.Duration
	Self  time.Duration
	N     int64
}

// totals computes per-name totals. A span's self time is its duration
// minus the part of it that its children's intervals cover (children may
// overlap when they ran on different goroutines).
func (r *recorder) totals() map[string]*layerTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Total += d
		t.Self += d - covered(s, children[s.ID])
		t.N += s.N
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// untracedMean averages the untraced operations a traced run interleaves
// with its traced ones, so that both meet the same host conditions.
type untracedMean struct {
	total time.Duration
	n     int
}

// add counts one untraced operation that succeeded.
func (u *untracedMean) add(d time.Duration, err error) {
	if err == nil {
		u.total += d
		u.n++
	}
}

// ns returns the mean in nanoseconds.
func (u *untracedMean) ns() float64 { return ratio(float64(u.total.Nanoseconds()), float64(u.n)) }

// nsOf returns a layer's total wall time in ns (0 when it never ran).
func nsOf(t *layerTotal) float64 {
	if t == nil {
		return 0
	}
	return float64(t.Total.Nanoseconds())
}

// ledgerResidual sets bench.residual_ms and bench.trace_overhead_pct from
// the traced operations (roots) and the untraced mean latency in ns. The
// layers of a traced operation are its child spans, so their sum is the
// root's time minus its self time.
func ledgerResidual(out map[string]float64, roots *layerTotal, untraced float64) {
	if roots == nil || roots.Count == 0 {
		return
	}
	n := float64(roots.Count)
	layers := float64((roots.Total - roots.Self).Nanoseconds()) / n
	traced := float64(roots.Total.Nanoseconds()) / n
	out["bench.residual_ms"] = (untraced - layers) / 1e6
	out["bench.trace_overhead_pct"] = 100 * (traced - untraced) / untraced
}
