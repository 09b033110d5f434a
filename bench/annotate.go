package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/blackboard"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/snapshot"
)

// schemeC is the aggregation key of the paper's Table I, scheme C.
const schemeC = "function,annotation,kernel,amr.level,mpi.rank,mpi.function,iteration#mainloop"

const annotateOps = "count,sum(time.duration)"

// annAttrs are the seven annotation attributes, in key order. Non-nested
// ones are created up front, as the instrumented CleverLeaf proxy does.
var annAttrs = []struct {
	name  string
	typ   attr.Type
	props attr.Properties
}{
	{"function", attr.String, attr.Nested},
	{"annotation", attr.String, attr.Nested},
	{"kernel", attr.String, attr.Nested},
	{"amr.level", attr.Int, attr.Nested},
	{"mpi.rank", attr.Int, 0},
	{"mpi.function", attr.String, attr.Nested},
	{"iteration#mainloop", attr.Int, 0},
}

const (
	aFunction = iota
	aAnnotation
	aKernel
	aLevel
	aRank
	aMPIFn
	aIter
)

type evKind uint8

const (
	evBegin evKind = iota
	evEnd
	evSet
)

// event is one annotation call of the script.
type event struct {
	kind evKind
	attr uint8
	val  any          // boxed once, so replaying allocates nothing itself
	v    attr.Variant // the same value for the layer replay
}

// script is one thread's annotation calls, cut into timestep batches.
type script struct {
	rank    int64
	batches [][]event
	events  int
}

// cleverleafKernels are the CleverLeaf proxy's computational kernels.
var cleverleafKernels = []string{
	"calc-dt", "advec-cell", "advec-mom", "pdv", "viscosity",
	"accelerate", "flux-calc", "ideal-gas", "reset", "update-halo",
}

// genScript draws one thread's CleverLeaf-shaped timestep script: per
// timestep an iteration Set, per AMR level a region with halo exchange
// and kernel regions, then a barrier and three reductions. The seed picks
// which fifth of the timesteps run two AMR levels instead of three and
// which kernel each level skips; the counts are fixed, so every seed
// makes the same number of calls.
func genScript(rnd *rand.Rand, rank int64, timesteps int) script {
	s := script{rank: rank}
	var cur []event
	add := func(kind evKind, a int, val any) {
		var v attr.Variant
		if val != nil {
			v = attr.GuessV(val)
		}
		cur = append(cur, event{kind: kind, attr: uint8(a), val: val, v: v})
	}
	mpiCall := func(name string) {
		add(evBegin, aMPIFn, name)
		add(evEnd, aMPIFn, nil)
	}
	twoLevels := make(map[int]bool)
	for _, st := range rnd.Perm(timesteps)[:timesteps/5] {
		twoLevels[st] = true
	}
	add(evSet, aRank, rank)
	add(evBegin, aFunction, "main")
	add(evBegin, aAnnotation, "init")
	add(evEnd, aAnnotation, nil)
	add(evBegin, aAnnotation, "computation")
	add(evBegin, aFunction, "hydro")
	for step := 0; step < timesteps; step++ {
		add(evSet, aIter, step)
		levels := 3
		if twoLevels[step] {
			levels = 2
		}
		for level := 0; level < levels; level++ {
			add(evBegin, aLevel, level)
			if step > 0 {
				mpiCall("MPI_Recv")
				mpiCall("MPI_Recv")
			}
			mpiCall("MPI_Send")
			mpiCall("MPI_Send")
			skip := rnd.Intn(len(cleverleafKernels))
			for i, k := range cleverleafKernels {
				if i != skip {
					add(evBegin, aKernel, k)
					add(evEnd, aKernel, nil)
				}
			}
			add(evEnd, aLevel, nil)
		}
		mpiCall("MPI_Barrier")
		for i := 0; i < 3; i++ {
			mpiCall("MPI_Allreduce")
		}
		if step == timesteps-1 {
			add(evEnd, aFunction, nil)
			add(evEnd, aAnnotation, nil)
			add(evEnd, aFunction, nil)
		}
		s.batches = append(s.batches, cur)
		s.events += len(cur)
		cur = nil
	}
	return s
}

// keySep joins key components in the oracle's group keys.
const keySep = "\x1f"

// expectCounts simulates the blackboard to tally, per scheme-C key, how
// many snapshots the event service takes. It is the annotate oracle: one
// snapshot per call, taken before the call changes the blackboard. All
// nested attributes share one stack, so a nested attribute's key value
// is the path of its values on that stack.
func expectCounts(scripts []script) map[string]uint64 {
	want := make(map[string]uint64)
	for _, s := range scripts {
		type entry struct {
			attr uint8
			val  string
		}
		var stack []entry
		plain := make(map[uint8]string)
		for _, b := range s.batches {
			for _, ev := range b {
				parts := make([]string, len(annAttrs))
				for i, a := range annAttrs {
					if a.props&attr.Nested == 0 {
						parts[i] = plain[uint8(i)]
						continue
					}
					var path []string
					for _, e := range stack {
						if e.attr == uint8(i) {
							path = append(path, e.val)
						}
					}
					parts[i] = strings.Join(path, "/")
				}
				want[strings.Join(parts, keySep)]++
				switch {
				case ev.kind == evEnd:
					stack = stack[:len(stack)-1]
				case annAttrs[ev.attr].props&attr.Nested != 0:
					stack = append(stack, entry{ev.attr, ev.v.String()})
				default:
					plain[ev.attr] = ev.v.String()
				}
			}
		}
	}
	return want
}

// checkCounts compares a channel's flushed rows with the oracle.
func checkCounts(rows []snapshot.FlatRecord, reg *attr.Registry, want map[string]uint64, snapshots uint64) error {
	ids := make([]attr.ID, len(annAttrs))
	for i, a := range annAttrs {
		at, ok := reg.Find(a.name)
		if !ok {
			return fmt.Errorf("attribute %s missing", a.name)
		}
		ids[i] = at.ID()
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, want %d keys", len(rows), len(want))
	}
	var total uint64
	parts := make([]string, len(ids))
	for _, row := range rows {
		for i, id := range ids {
			vals := row.ValuesOf(id)
			s := make([]string, len(vals))
			for j, v := range vals {
				s[j] = v.String()
			}
			parts[i] = strings.Join(s, "/")
		}
		key := strings.Join(parts, keySep)
		cv, ok := row.GetByName(core.CountResultName)
		if !ok {
			return fmt.Errorf("row %q has no count", key)
		}
		if w, ok := want[key]; !ok || w != cv.AsUint() {
			return fmt.Errorf("key %q: count %d, want %d", strings.ReplaceAll(key, keySep, ","), cv.AsUint(), w)
		}
		total += cv.AsUint()
	}
	if total != snapshots {
		return fmt.Errorf("counts add up to %d, channel took %d snapshots", total, snapshots)
	}
	return nil
}

// annotate is the on-line workload: nproc goroutines each own a Thread of
// one scheme-C channel and replay their script with no compute between
// calls. One round is one channel's life: all scripts, then Flush and
// the .cali write.
type annotate struct {
	scripts []script
	want    map[string]uint64 // oracle for a round of all scripts
	want1   map[string]uint64 // oracle for a round of the first script
	out     string            // the round's .cali output
}

// annotateTimesteps is the length of one round's script.
const annotateTimesteps = 40

func setupAnnotate(dir string, seed int64, clients int) (*annotate, error) {
	rnd := rand.New(rand.NewSource(seed))
	ranks := genRanks(rnd, clients)
	w := &annotate{out: filepath.Join(dir, "annotate.cali")}
	for _, r := range ranks {
		w.scripts = append(w.scripts, genScript(rnd, r, annotateTimesteps))
	}
	w.want = expectCounts(w.scripts)
	w.want1 = expectCounts(w.scripts[:1])
	return w, os.MkdirAll(dir, 0o755)
}

// roundResult is what one facade round measured.
type roundResult struct {
	wall, flush, write time.Duration
	events, failed     uint64
	rows               int
	nodes              int
	snapshots          uint64
	lat                Hist // per-event ns, one sample per batch
	allocs             uint64
}

// round runs the first n scripts (n is 1 or all), each on its own
// goroutine and Thread,
// then flushes and writes the output. With rec set, every batch, the
// flush and the write become spans under parent.
func (w *annotate) round(n int, rec *recorder, parent int) (*roundResult, error) {
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": schemeC,
		"aggregate.ops": annotateOps,
	})
	if err != nil {
		return nil, err
	}
	for _, a := range annAttrs {
		if a.props&attr.Nested == 0 || a.typ != attr.String {
			if _, err := ch.CreateAttribute(a.name, a.typ, a.props); err != nil {
				return nil, err
			}
		}
	}
	res := &roundResult{}
	hists := make([]Hist, n)
	failed := make([]uint64, n)
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	ready.Add(n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			th := ch.Thread()
			s := w.scripts[i]
			ready.Done()
			<-start
			for _, b := range s.batches {
				t0 := time.Now()
				for _, ev := range b {
					var err error
					name := annAttrs[ev.attr].name
					switch ev.kind {
					case evBegin:
						err = th.Begin(name, ev.val)
					case evEnd:
						err = th.End(name)
					default:
						err = th.Set(name, ev.val)
					}
					if err != nil {
						failed[i]++
					}
				}
				d := time.Since(t0)
				hists[i].Add(float64(d.Nanoseconds()) / float64(len(b)))
				if rec != nil {
					rec.add("caliper.events", parent, t0, d, int64(len(b)))
				}
			}
		}(i)
	}
	ready.Wait()
	// a round is one application run: it starts from a collected heap
	runtime.GC()
	a0 := heapAllocs()
	t0 := time.Now()
	close(start)
	wg.Wait()
	f0 := time.Now()
	rows, ferr := ch.Flush()
	res.flush = time.Since(f0)
	w0 := time.Now()
	werr := writeRows(w.out, ch, rows)
	res.write = time.Since(w0)
	res.wall = time.Since(t0)
	res.allocs = heapAllocs() - a0
	if rec != nil {
		rec.add("caliper.flush", parent, f0, res.flush, int64(len(rows)))
		rec.add("calformat.write", parent, w0, res.write, int64(len(rows)))
	}
	for i := range hists {
		res.lat.Merge(&hists[i])
		res.events += uint64(w.scripts[i].events)
		res.failed += failed[i]
	}
	res.rows = len(rows)
	res.nodes = ch.Tree().Len()
	res.snapshots = ch.Snapshots()
	if ferr != nil {
		return res, fmt.Errorf("flush: %w", ferr)
	}
	if werr != nil {
		return res, fmt.Errorf("write output: %w", werr)
	}
	want := w.want
	if n == 1 {
		want = w.want1
	}
	if res.failed == 0 {
		if err := checkCounts(rows, ch.Registry(), want, res.snapshots); err != nil {
			return res, &wrongError{err}
		}
	}
	return res, nil
}

// writeRows writes flushed rows as the channel's .cali output.
func writeRows(path string, ch *caliper.Channel, rows []snapshot.FlatRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := calformat.NewWriter(f, ch.Registry(), ch.Tree())
	for _, r := range rows {
		if err := cw.WriteFlat(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := cw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrongError marks a result that disagrees with the oracle.
type wrongError struct{ err error }

func (e *wrongError) Error() string { return "wrong result: " + e.err.Error() }

func (w *annotate) measure(m *meter, until time.Time) error {
	for time.Now().Before(until) {
		res, err := w.round(len(w.scripts), nil, 0)
		if res != nil {
			m.window(res.wall, res.allocs)
			m.merge(&res.lat)
		}
		if err := account(m, res, err); err != nil {
			return err
		}
	}
	return nil
}

// clients is the number of goroutines a round starts, one per script.
func (w *annotate) clients() int { return len(w.scripts) }

func (w *annotate) pathValues(m *meter, out map[string]float64) {
	out["events_per_s"] = float64(m.ops) / m.busy.Seconds()
	putQuantile(out, "event_ns_p50", &m.lat, 0.5, 1)
	putQuantile(out, "event_ns_p99", &m.lat, 0.99, 1)
	out["event_batches"] = float64(m.lat.Count())
	out["alloc_bytes_per_event"] = float64(m.allocs) / float64(m.ops)
}

// account counts a round's events in m; it returns err unless err only
// reports an oracle disagreement, which it records instead.
func account(m *meter, res *roundResult, err error) error {
	if res != nil {
		m.done(res.events - res.failed)
		m.fail(res.failed)
	}
	if err != nil && !noteWrong(m, err) {
		return err
	}
	return nil
}

// noteWrong records an oracle disagreement in m; it reports false for
// any other error.
func noteWrong(m *meter, err error) bool {
	if we, ok := err.(*wrongError); ok {
		m.mismatch(we.err.Error())
		return true
	}
	return false
}

// replay pushes script s through the on-line layers directly, one layer
// per pass, so each layer's cost is a pass time: blackboard updates
// alone; updates plus snapshots; snapshot unpacking; aggregation.
func replay(s script, rec *recorder, parent int) (l *ledgerAnnotate, err error) {
	reg := attr.NewRegistry()
	ats := make([]attr.Attribute, len(annAttrs))
	for i, a := range annAttrs {
		ats[i] = reg.MustCreate(a.name, a.typ, a.props)
	}
	dur := reg.MustCreate(caliper.DurationAttr, attr.Int, attr.AsValue|attr.Aggregatable|attr.SkipEvents)
	q, err := calql.Parse("AGGREGATE " + annotateOps + " GROUP BY " + schemeC)
	if err != nil {
		return nil, err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return nil, err
	}
	apply := func(bb *blackboard.Blackboard, ev event) error {
		switch ev.kind {
		case evBegin:
			return bb.Begin(ats[ev.attr], ev.v)
		case evEnd:
			return bb.End(ats[ev.attr])
		default:
			return bb.Set(ats[ev.attr], ev.v)
		}
	}
	l = &ledgerAnnotate{events: s.events}

	id := rec.start("blackboard.update", parent)
	bb := blackboard.New(contexttree.New(), reg)
	for _, b := range s.batches {
		for _, ev := range b {
			if err := apply(bb, ev); err != nil {
				return nil, err
			}
		}
	}
	rec.end(id, int64(s.events))

	recs := make([]snapshot.Record, 0, s.events)
	tree := contexttree.New()
	bb = blackboard.New(tree, reg)
	durV := attr.IntV(1000)
	id = rec.start("blackboard.update+snapshot", parent)
	for _, b := range s.batches {
		for _, ev := range b {
			var sb snapshot.Builder
			bb.Snapshot(&sb)
			sb.AddImmediate(dur, durV)
			recs = append(recs, sb.Record())
			if err := apply(bb, ev); err != nil {
				return nil, err
			}
		}
	}
	rec.end(id, int64(s.events))

	flats := make([]snapshot.FlatRecord, len(recs))
	m0 := heapMallocs()
	id = rec.start("snapshot.unpack", parent)
	for i, r := range recs {
		if flats[i], err = r.Unpack(tree, reg); err != nil {
			return nil, err
		}
	}
	rec.end(id, int64(len(recs)))
	l.unpackAllocs = heapMallocs() - m0

	db, err := core.NewDB(scheme, reg)
	if err != nil {
		return nil, err
	}
	m0 = heapMallocs()
	id = rec.start("core.update", parent)
	for _, f := range flats {
		db.Update(f)
	}
	rec.end(id, int64(len(flats)))
	l.updateAllocs = heapMallocs() - m0
	l.keys = db.Len()
	return l, nil
}

// ledgerAnnotate holds the counts one replay took besides its spans.
type ledgerAnnotate struct {
	events       int
	unpackAllocs uint64
	updateAllocs uint64
	keys         int
}

// ledger is the traced run. Each of its cycles runs a facade round
// untraced, the same round with spans, a round on one goroutine, and the
// layer replay, so every comparison meets the same host conditions: they
// give the tracing cost, contention and the per-layer split.
func (w *annotate) ledger(rec *recorder, m *meter, out map[string]float64, until time.Time) error {
	var untraced, traced []*roundResult
	var reps []*ledgerAnnotate
	round := func(n int, name string, dst *[]*roundResult) error {
		var parent int
		r := rec
		if name == "" {
			r = nil
		} else {
			parent = rec.start(name, 0)
		}
		res, err := w.round(n, r, parent)
		if r != nil && res != nil {
			rec.end(parent, int64(res.events))
		}
		if err := account(m, res, err); err != nil {
			return err
		}
		if dst != nil {
			*dst = append(*dst, res)
		}
		return nil
	}
	for len(reps) == 0 || time.Now().Before(until) {
		if err := round(len(w.scripts), "", &untraced); err != nil {
			return err
		}
		if err := round(len(w.scripts), "annotate.round", &traced); err != nil {
			return err
		}
		if err := round(1, "annotate.round1", nil); err != nil {
			return err
		}
		runtime.GC()
		root := rec.start("annotate.replay", 0)
		l, err := replay(w.scripts[0], rec, root)
		rec.end(root, int64(w.scripts[0].events))
		if err != nil {
			return err
		}
		reps = append(reps, l)
	}

	// per-event facade cost at nproc (traced rounds) and on one goroutine
	tot := rec.totals()
	evNsN, evN, evNs1, ev1 := eventSpans(rec, "annotate.round", "annotate.round1")
	if evN == 0 || ev1 == 0 {
		return fmt.Errorf("no traced events")
	}
	events := float64(reps[0].events)
	upd := tot["blackboard.update"]
	updSnap := tot["blackboard.update+snapshot"]
	unpack := tot["snapshot.unpack"]
	dbUpd := tot["core.update"]
	nrep := float64(len(reps))
	perEv := func(t *layerTotal) float64 { return float64(t.Total.Nanoseconds()) / nrep / events }
	out["caliper.event_ns"] = evNs1
	out["caliper.contention_ratio"] = evNsN / evNs1
	out["blackboard.update_ns"] = perEv(upd)
	out["blackboard.snapshot_ns"] = perEv(updSnap) - perEv(upd)
	out["snapshot.unpack_ns"] = perEv(unpack)
	out["core.update_ns"] = perEv(dbUpd)
	out["caliper.dispatch_ns"] = evNs1 - perEv(updSnap) - perEv(unpack) - perEv(dbUpd)
	var ua, da float64
	for _, l := range reps {
		ua += float64(l.unpackAllocs)
		da += float64(l.updateAllocs)
	}
	out["snapshot.unpack_allocs"] = ua / nrep / events
	out["core.update_allocs"] = da / nrep / events
	out["core.keys"] = float64(reps[len(reps)-1].keys)

	var snaps, evs, rows, flushNs, writeNs, roundT, roundU, nodes float64
	for _, r := range traced {
		snaps += float64(r.snapshots)
		evs += float64(r.events)
		rows += float64(r.rows)
		flushNs += float64(r.flush.Nanoseconds())
		writeNs += float64(r.write.Nanoseconds())
		roundT += float64(r.wall.Nanoseconds())
		nodes = float64(r.nodes)
	}
	for _, r := range untraced {
		roundU += float64(r.wall.Nanoseconds())
	}
	nt := float64(len(traced))
	roundU /= float64(len(untraced))
	roundT /= nt
	out["caliper.snapshots_per_event"] = snaps / evs
	out["caliper.flush_ms"] = flushNs / nt / 1e6
	out["calformat.write_ns_per_record"] = writeNs / rows
	out["contexttree.nodes"] = nodes

	// The round's critical path is its longest script at the one-goroutine
	// event cost, then the flush and the write; the residual is what that
	// leaves unexplained, contention between the goroutines included.
	maxEvents := 0
	for _, s := range w.scripts {
		maxEvents = max(maxEvents, s.events)
	}
	explained := float64(maxEvents)*evNs1 + flushNs/nt + writeNs/nt
	out["bench.residual_ms"] = (roundU - explained) / 1e6
	out["bench.trace_overhead_pct"] = 100 * (roundT - roundU) / roundU
	return nil
}

// eventSpans returns the per-event cost (ns) and event count of the
// caliper.events spans under roots named a and under roots named b.
func eventSpans(rec *recorder, a, b string) (nsA float64, nA int64, nsB float64, nB int64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var tA, tB time.Duration
	for _, s := range rec.spans {
		if s.Name != "caliper.events" || s.Parent == 0 {
			continue
		}
		switch rec.spans[s.Parent-1].Name {
		case a:
			tA += s.End - s.Start
			nA += s.N
		case b:
			tB += s.End - s.Start
			nB += s.N
		}
	}
	if nA > 0 {
		nsA = float64(tA.Nanoseconds()) / float64(nA)
	}
	if nB > 0 {
		nsB = float64(tB.Nanoseconds()) / float64(nB)
	}
	return
}
