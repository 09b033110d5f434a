package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/obs"
	"caligo/internal/qcache"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

const (
	appendFiles = 16
	// roundOps is the length of one round's seeded operation mix. Each
	// round starts from the seeded corpus, so every round does the same
	// work and the target file does not grow across the run.
	roundOps = 40
	// roundAppends of a round's operations are appends: one per four
	// queries.
	roundAppends = roundOps / 5
)

// step is one operation of the mix: a query of the cycle, or (query < 0)
// an append of seg to the target file.
type step struct {
	query int
	seg   []rec
}

// appendRequery runs the three file queries through the sharded executor
// with index sidecars and the aggregate cache, interleaved with appends
// to one file that rebuild its sidecar.
type appendRequery struct {
	c        *corpus
	texts    []string
	store    *qcache.Store
	cacheDir string
	pristine string // the target file, its sidecar and the cache as set up
	target   int    // index of the file appends go to
	steps    []step
	base     *tally // the oracle at the seeded state
	jobs     int
	out      bytes.Buffer
	rounds   int
}

func setupAppend(dir string, seed int64, clients int) (*appendRequery, error) {
	c, err := genCorpus(filepath.Join(dir, "corpus"), seed, appendFiles, scanShape)
	if err != nil {
		return nil, err
	}
	for _, f := range c.files {
		if err := buildIndex(f); err != nil {
			return nil, err
		}
	}
	w := &appendRequery{
		c: c, jobs: clients,
		cacheDir: filepath.Join(dir, "cache"),
		pristine: filepath.Join(dir, "pristine"),
	}
	if w.store, err = qcache.Open(w.cacheDir); err != nil {
		return nil, err
	}
	for _, q := range fileQueries {
		w.texts = append(w.texts, c.tally.queryText(q))
	}
	// warm the cache: every query once over the seeded corpus
	for i, q := range fileQueries {
		rows, _, err := w.query(i)
		if err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
		if err := c.tally.check(q, rows); err != nil {
			return nil, &wrongError{err}
		}
	}
	rnd := rand.New(rand.NewSource(seed ^ 0xa99e4d))
	w.target = rnd.Intn(len(c.files))
	w.steps = genSteps(rnd, c, w.target)
	w.base = c.tally
	if err := os.MkdirAll(filepath.Join(w.pristine, "cache"), 0o755); err != nil {
		return nil, err
	}
	if err := copyFile(c.files[w.target], filepath.Join(w.pristine, "target.cali")); err != nil {
		return nil, err
	}
	if err := copyFile(calformat.IndexPath(c.files[w.target]), filepath.Join(w.pristine, "target.idx")); err != nil {
		return nil, err
	}
	return w, copyDir(w.cacheDir, filepath.Join(w.pristine, "cache"))
}

// genSteps draws one round's operation mix: roundAppends appends at
// seeded positions, at least one in the first half so later queries meet
// an appended file, and queries cycling through the three between them.
// Each append is the target rank's next main-loop iteration.
func genSteps(rnd *rand.Rand, c *corpus, target int) []step {
	kinds := make([]bool, roundOps) // true: append
	kinds[rnd.Intn(roundOps/2)] = true
	for n := 1; n < roundAppends; {
		if i := rnd.Intn(roundOps); !kinds[i] {
			kinds[i] = true
			n++
		}
	}
	var steps []step
	it, qi := c.nextIt[target], 0
	for _, isAppend := range kinds {
		if isAppend {
			steps = append(steps, step{query: -1, seg: genIteration(rnd, c.shape, c.ranks[target], it)})
			it++
			continue
		}
		steps = append(steps, step{query: qi % len(fileQueries)})
		qi++
	}
	return steps
}

// buildIndex rebuilds and writes the sidecar index of one data file.
func buildIndex(path string) error {
	idx, err := calformat.BuildFileIndex(path, calformat.IndexOptions{})
	if err != nil {
		return fmt.Errorf("index %s: %w", path, err)
	}
	return calformat.WriteIndexFile(path, idx)
}

// query runs query i of the cycle through the sharded executor, with the
// index sidecars and the aggregate cache, and renders it.
func (w *appendRequery) query(i int) ([]snapshot.FlatRecord, query.ScanStats, error) {
	q, err := calql.Parse(w.texts[i])
	if err != nil {
		return nil, query.ScanStats{}, err
	}
	plan := query.NewScanPlan(q, query.ScanOptions{UseIndex: true, Cache: w.store})
	reg := attr.NewRegistry()
	rows, err := query.RunShardedPlan(plan, q, reg, w.c.files, w.jobs, nil)
	if err != nil {
		return nil, plan.Stats(), err
	}
	eng, err := query.New(q, reg)
	if err != nil {
		return nil, plan.Stats(), err
	}
	w.out.Reset()
	return rows, plan.Stats(), eng.Write(&w.out, rows)
}

// appendSeg appends seg to the target file as a new stream, then
// rebuilds the file's sidecar index.
func (w *appendRequery) appendSeg(seg []rec) error {
	path := w.c.files[w.target]
	if err := writeStream(path, os.O_APPEND|os.O_WRONLY, seg); err != nil {
		return err
	}
	return buildIndex(path)
}

// restore puts the target file, its sidecar and the cache back to their
// set-up state, and returns a fresh oracle for that state.
func (w *appendRequery) restore() (*tally, error) {
	path := w.c.files[w.target]
	if err := copyFile(filepath.Join(w.pristine, "target.cali"), path); err != nil {
		return nil, err
	}
	if err := copyFile(filepath.Join(w.pristine, "target.idx"), calformat.IndexPath(path)); err != nil {
		return nil, err
	}
	if err := copyDir(filepath.Join(w.pristine, "cache"), w.cacheDir); err != nil {
		return nil, err
	}
	return w.base.clone(), nil
}

// opFunc runs one step of the mix; it returns a query's rows.
type opFunc func(s step) ([]snapshot.FlatRecord, error)

// round runs the mix once from the set-up state. Each step goes through
// do and is timed into m. At the end it compares one query's rendered
// answer with a serial scan of the same bytes that uses no index and no
// cache.
func (w *appendRequery) round(m *meter, do opFunc) error {
	t, err := w.restore()
	if err != nil {
		return err
	}
	for _, s := range w.steps {
		check := func(rows []snapshot.FlatRecord) error {
			if t == nil {
				return nil
			}
			if s.query < 0 {
				for _, r := range s.seg {
					t.add(r)
				}
				return nil
			}
			return t.check(fileQueries[s.query], rows)
		}
		kind := "query"
		if s.query < 0 {
			kind = "append"
		}
		_, err := timeOp(m, kind, func() ([]snapshot.FlatRecord, error) { return do(s) }, check)
		if err != nil && s.query < 0 {
			t = nil // the file's content is unknown after a failed append
		}
	}
	q := w.rounds % len(fileQueries)
	w.rounds++
	if t == nil {
		return nil
	}
	rows, _, err := w.query(q)
	if err != nil {
		m.fail(1)
		return nil
	}
	if err := t.check(fileQueries[q], rows); err != nil {
		m.mismatch("after the round: " + err.Error())
	}
	serial, err := calql.QueryFilesOpt(w.texts[q], w.c.files, serialOpts)
	if err != nil {
		m.fail(1)
		return nil
	}
	var ref bytes.Buffer
	if err := serial.Render(&ref); err != nil {
		m.fail(1)
		return nil
	}
	if !bytes.Equal(ref.Bytes(), w.out.Bytes()) {
		m.mismatch(fmt.Sprintf("query %d: indexed, cached, sharded output differs from a serial scan", q))
	}
	return nil
}

// do is the untraced step.
func (w *appendRequery) do(s step) ([]snapshot.FlatRecord, error) {
	if s.query < 0 {
		return nil, w.appendSeg(s.seg)
	}
	rows, _, err := w.query(s.query)
	return rows, err
}

func (w *appendRequery) measure(m *meter, until time.Time) error {
	for time.Now().Before(until) {
		if err := w.round(m, w.do); err != nil {
			return err
		}
	}
	return nil
}

// clients is the number of shard goroutines each query starts.
func (w *appendRequery) clients() int { return w.jobs }

func (w *appendRequery) pathValues(m *meter, out map[string]float64) {
	q, a := m.kind("query"), m.kind("append")
	putQuantile(out, "query_ms_p50", &q.lat, 0.5, 1e6)
	putQuantile(out, "query_ms_p90", &q.lat, 0.9, 1e6)
	putQuantile(out, "append_ms_p50", &a.lat, 0.5, 1e6)
	putQuantile(out, "append_ms_p90", &a.lat, 0.9, 1e6)
	out["queries"], out["appends"] = float64(q.n), float64(a.n)
	out["alloc_kb_per_query"] = ratio(float64(q.allocs), float64(q.n)) / 1024
}

// ledger replays the sharded executor by hand through its public calls
// (PlanUnits, ScanUnit per shard, DB.Merge, Results, Write) and times
// appends as a Writer pass and an index rebuild. Probes read LoadIndex
// per file, the executor's own shard skew, and the emulated-MPI parallel
// query over the same corpus.
func (w *appendRequery) ledger(rec *recorder, m *meter, out map[string]float64, until time.Time) error {
	var sum query.ScanStats
	var loads, loadNs float64
	traced := func(s step) ([]snapshot.FlatRecord, error) {
		if s.query < 0 {
			root := rec.start("append.append", 0)
			defer rec.end(root, 1)
			path := w.c.files[w.target]
			id := rec.start("calformat.write", root)
			err := writeStream(path, os.O_APPEND|os.O_WRONLY, s.seg)
			rec.end(id, int64(len(s.seg)))
			if err != nil {
				return nil, err
			}
			id = rec.start("calformat.index_build", root)
			err = buildIndex(path)
			rec.end(id, 1)
			return nil, err
		}
		root := rec.start("append.query", 0)
		rows, st, err := w.tracedQuery(rec, root, s.query)
		rec.end(root, 1)
		addStats(&sum, st)
		// probe: load every sidecar once, outside the query
		for _, f := range w.c.files {
			t0 := time.Now()
			if _, err := calformat.LoadIndex(f); err == nil {
				loadNs += float64(time.Since(t0).Nanoseconds())
				loads++
			}
		}
		return rows, err
	}
	// whole rounds, an untraced one before each traced one
	var base untracedMean
	for r := 0; r == 0 || time.Now().Before(until); r++ {
		busy, ops := m.busy, m.ops
		if err := w.round(m, w.do); err != nil {
			return err
		}
		base.total += m.busy - busy
		base.n += int(m.ops - ops)
		if err := w.round(m, traced); err != nil {
			return err
		}
	}
	skew, err := w.shardSkew()
	if err != nil {
		return err
	}
	if err := w.parallelProbe(rec, m, out); err != nil {
		return err
	}

	tot := rec.totals()
	per := func(name string, scale float64) float64 {
		t := tot[name]
		if t == nil {
			return 0
		}
		return ratio(nsOf(t), float64(t.Count)*scale)
	}
	files := float64(sum.Files)
	out["calformat.write_ns_per_record"] = ratio(nsOf(tot["calformat.write"]), float64(tot["calformat.write"].N))
	out["calformat.index_build_ms"] = per("calformat.index_build", 1e6)
	out["calformat.index_load_us"] = ratio(loadNs, loads*1e3)
	out["calql.parse_us"] = per("calql.parse", 1e3)
	out["query.merge_us"] = per("query.merge", 1e3)
	out["query.results_ms"] = per("query.results", 1e6)
	out["query.format_ms"] = per("query.format", 1e6)
	out["query.blocks_pruned_ratio"] = ratio(float64(sum.BlocksPruned), float64(sum.BlocksScanned+sum.BlocksPruned))
	out["query.files_skipped_ratio"] = ratio(float64(sum.FilesSkipped), files)
	out["query.index_fallbacks"] = float64(sum.Fallbacks)
	out["query.shard_skew"] = skew
	out["qcache.hit_ratio"] = ratio(float64(sum.CacheHits), files)
	out["qcache.incremental_ratio"] = ratio(float64(sum.CacheIncremental), files)
	out["qcache.fallbacks"] = float64(sum.CacheFallbacks)
	if sum.CacheHits == 0 || sum.CacheIncremental == 0 {
		return fmt.Errorf("append-requery saw %d cache hits and %d incremental rescans; it must exercise both",
			sum.CacheHits, sum.CacheIncremental)
	}

	// the traced operations are the append and query roots together
	roots := &layerTotal{}
	for _, name := range []string{"append.append", "append.query"} {
		if t := tot[name]; t != nil {
			roots.Count += t.Count
			roots.Total += t.Total
			roots.Self += t.Self
		}
	}
	ledgerResidual(out, roots, base.ns())
	return nil
}

// addStats adds st's counts to sum.
func addStats(sum *query.ScanStats, st query.ScanStats) {
	sum.Files += st.Files
	sum.FilesSkipped += st.FilesSkipped
	sum.Fallbacks += st.Fallbacks
	sum.BlocksScanned += st.BlocksScanned
	sum.BlocksPruned += st.BlocksPruned
	sum.CacheHits += st.CacheHits
	sum.CacheIncremental += st.CacheIncremental
	sum.CacheFallbacks += st.CacheFallbacks
}

// tracedQuery is query with the sharded executor replayed by hand: plan
// the units, scan unit w, w+jobs, ... into shard w's private engine on
// its own goroutine, fold the shard databases pairwise, the disjoint
// merges of one level concurrently, then Results and Write on shard 0.
// Each call is a span.
func (w *appendRequery) tracedQuery(rec *recorder, root, i int) ([]snapshot.FlatRecord, query.ScanStats, error) {
	id := rec.start("calql.parse", root)
	q, err := calql.Parse(w.texts[i])
	rec.end(id, 1)
	if err != nil {
		return nil, query.ScanStats{}, err
	}
	reg := attr.NewRegistry()
	plan := query.NewScanPlan(q, query.ScanOptions{UseIndex: true, Cache: w.store})
	id = rec.start("query.plan", root)
	units := plan.PlanUnits(w.c.files, w.jobs)
	rec.end(id, int64(len(units)))
	jobs := max(1, min(w.jobs, len(units)))
	engs := make([]*query.Engine, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for s := 0; s < jobs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sid := rec.start("query.shard", root)
			defer func() { rec.end(sid, 1) }()
			eng, err := query.New(q, reg)
			if err != nil {
				errs[s] = err
				return
			}
			engs[s] = eng
			tree := contexttree.New()
			for u := s; u < len(units); u += jobs {
				if _, _, err := plan.ScanUnit(eng, units[u], reg, tree); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, plan.Stats(), err
		}
	}
	id = rec.start("query.merge", root)
	for stride := 1; stride < jobs; stride *= 2 {
		var mw sync.WaitGroup
		for d := 0; d+stride < jobs; d += 2 * stride {
			mw.Add(1)
			go func(dst, src int) {
				defer mw.Done()
				errs[dst] = engs[dst].DB().Merge(engs[src].DB())
			}(d, d+stride)
		}
		mw.Wait()
	}
	rec.end(id, int64(jobs))
	for _, err := range errs {
		if err != nil {
			return nil, plan.Stats(), err
		}
	}
	id = rec.start("query.results", root)
	rows, err := engs[0].Results()
	rec.end(id, int64(len(rows)))
	if err != nil {
		return nil, plan.Stats(), err
	}
	id = rec.start("query.format", root)
	w.out.Reset()
	err = engs[0].Write(&w.out, rows)
	rec.end(id, int64(len(rows)))
	return rows, plan.Stats(), err
}

// shardSkew runs each query once through the executor itself with
// caligo's telemetry on and returns the mean shard skew it attributed.
func (w *appendRequery) shardSkew() (float64, error) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	var sum float64
	for i := range fileQueries {
		q, err := calql.Parse(w.texts[i])
		if err != nil {
			return 0, err
		}
		aq := obs.BeginQuery(w.texts[i], "sharded")
		plan := query.NewScanPlan(q, query.ScanOptions{UseIndex: true, Cache: w.store})
		_, err = query.RunShardedPlan(plan, q, attr.NewRegistry(), w.c.files, w.jobs, aq)
		aq.End(err)
		if err != nil {
			return 0, err
		}
		snap := obs.QuerySnapshot()
		for _, s := range snap {
			if s.ID == aq.ID() {
				sum += s.ShardSkew
			}
		}
	}
	return sum / float64(len(fileQueries)), nil
}

// copyFile copies src to dst, replacing dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyDir copies every regular file of src into dst, replacing files of
// the same name.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// parallelProbes is how many parallel queries the probe runs.
const parallelProbes = 5

// parallelProbe runs the emulated-MPI parallel query, one rank per load
// goroutine, with a high-cardinality GROUP BY that includes mpi.rank over
// the set-up corpus, so the reduction tree carries real state. It records the
// executor's local and reduce phases, and one file's aggregation state
// through DB.EncodeState and DB.MergeEncodedState: the wire format of the
// reduction and of the aggregate cache. The parallel query is a probe,
// not a workload of its own: run to run it spread too widely on a
// two-CPU host to gate.
func (w *appendRequery) parallelProbe(rec *recorder, m *meter, out map[string]float64) error {
	t, err := w.restore()
	if err != nil {
		return err
	}
	text := t.queryText(qRank)
	var local, reduce time.Duration
	for i := 0; i < parallelProbes; i++ {
		runtime.GC()
		t0 := time.Now()
		res, err := calql.QueryFilesParallelOpt(text, w.c.files, w.jobs, calql.Options{NoCache: true})
		if err != nil {
			m.fail(1)
			continue
		}
		m.done(1)
		tm := res.Timing
		root := rec.add("pquery.query", 0, t0, tm.TotalWall, int64(res.RecordsProcessed))
		rec.add("pquery.local", root, t0, tm.LocalWall, 0)
		rec.add("pquery.reduce", root, t0.Add(tm.LocalWall), tm.TotalWall-tm.LocalWall, 0)
		if err := t.check(qRank, res.Rows); err != nil {
			m.mismatch("parallel query: " + err.Error())
		}
		local += res.Timing.LocalWall
		reduce += res.Timing.TotalWall - res.Timing.LocalWall
	}
	out["pquery.local_ms"] = float64(local.Nanoseconds()) / parallelProbes / 1e6
	out["pquery.reduce_ms"] = float64(reduce.Nanoseconds()) / parallelProbes / 1e6
	if reduce <= 0 {
		return fmt.Errorf("the parallel query measured no reduction time")
	}

	q, err := calql.Parse(text)
	if err != nil {
		return err
	}
	reg := attr.NewRegistry()
	eng, err := query.New(q, reg)
	if err != nil {
		return err
	}
	plan := query.NewScanPlan(q, query.ScanOptions{})
	if _, _, err := plan.ScanFiles(eng, w.c.files[:1], reg, contexttree.New()); err != nil {
		return err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return err
	}
	var blob []byte
	var encode, merge time.Duration
	for i := 0; i < parallelProbes; i++ {
		t0 := time.Now()
		blob = eng.DB().EncodeState()
		d := time.Since(t0)
		rec.add("core.encode", 0, t0, d, int64(len(blob)))
		encode += d
		db, err := core.NewDB(scheme, reg)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = db.MergeEncodedState(blob)
		d = time.Since(t0)
		rec.add("core.merge_encoded", 0, t0, d, int64(len(blob)))
		merge += d
		if err != nil {
			return err
		}
		if db.Len() != eng.DB().Len() {
			return fmt.Errorf("merged state holds %d keys, encoded %d", db.Len(), eng.DB().Len())
		}
	}
	out["core.encode_us"] = float64(encode.Nanoseconds()) / parallelProbes / 1e3
	out["core.state_bytes"] = float64(len(blob))
	out["core.merge_encoded_us"] = float64(merge.Nanoseconds()) / parallelProbes / 1e3
	return nil
}
