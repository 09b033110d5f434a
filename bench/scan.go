package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// scanShape sizes the file corpora as the paper's ParaDiS dataset, the
// shape of paradis.DefaultConfig: 60 kernels and 25 MPI functions in each
// of 25 main-loop iterations, plus 49 initialization records, 2174
// records per file.
var scanShape = corpusShape{iterations: 25, kernels: 60, mpiFns: 25, initRecs: 49}

const scanFiles = 16

// fileQueries are the three queries the file workloads cycle.
var fileQueries = []int{qRegion, qSelect, qTop}

// scan is the serial off-line path: caligo's serial executor over a
// corpus with no index sidecars and no cache directory.
type scan struct {
	c     *corpus
	texts []string
	out   bytes.Buffer
}

func setupScan(dir string, seed int64) (*scan, error) {
	c, err := genCorpus(dir, seed, scanFiles, scanShape)
	if err != nil {
		return nil, err
	}
	w := &scan{c: c}
	for _, q := range fileQueries {
		w.texts = append(w.texts, c.tally.queryText(q))
	}
	return w, nil
}

// serialOpts runs the serial executor with no index and no cache.
var serialOpts = calql.Options{NoIndex: true, NoCache: true}

// bypassCounters are caligo's counters of sidecar index loads (a load
// that fails counts as a fallback) and of aggregate cache hits.
var bypassCounters = []string{
	"caligo.index.files.indexed", "caligo.index.fallback",
	"caligo.qcache.hits", "caligo.qcache.incremental",
}

// checkBypass runs text over files through calql.QueryFilesOpt with
// opts, the call the scan workload measures, with caligo's telemetry on.
// It returns an error if the query loaded an index sidecar or hit the
// aggregate cache.
func checkBypass(text string, files []string, opts calql.Options) error {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	before := make([]uint64, len(bypassCounters))
	for i, name := range bypassCounters {
		before[i] = telemetry.NewCounter(name).Value()
	}
	if _, err := calql.QueryFilesOpt(text, files, opts); err != nil {
		return err
	}
	for i, name := range bypassCounters {
		if d := telemetry.NewCounter(name).Value() - before[i]; d != 0 {
			return fmt.Errorf("%s moved by %d; the query must bypass the index and the cache", name, d)
		}
	}
	return nil
}

// query runs query i of the cycle the way cali-query does: parse,
// execute, render.
func (w *scan) query(i int) ([]snapshot.FlatRecord, error) {
	rs, err := calql.QueryFilesOpt(w.texts[i], w.c.files, serialOpts)
	if err != nil {
		return nil, err
	}
	w.out.Reset()
	return rs.Rows, rs.Render(&w.out)
}

// timeQuery runs query i of the cycle untraced, timed into m.
func (w *scan) timeQuery(m *meter, i int) (time.Duration, error) {
	return timeOp(m, "query", func() ([]snapshot.FlatRecord, error) { return w.query(i) },
		func(rows []snapshot.FlatRecord) error { return w.c.tally.check(fileQueries[i], rows) })
}

func (w *scan) measure(m *meter, until time.Time) error {
	for i := 0; time.Now().Before(until); i++ {
		w.timeQuery(m, i%len(fileQueries))
	}
	return nil
}

// clients is the one goroutine that runs the closed loop.
func (w *scan) clients() int { return 1 }

func (w *scan) pathValues(m *meter, out map[string]float64) {
	putQuantile(out, "query_ms_p50", &m.lat, 0.5, 1e6)
	putQuantile(out, "query_ms_p90", &m.lat, 0.9, 1e6)
	out["queries"] = float64(m.ops)
	out["records_per_s"] = float64(w.c.records) * float64(m.ops) / m.busy.Seconds()
	out["alloc_kb_per_query"] = float64(m.allocs) / float64(m.ops) / 1024
}

// ledger times the serial executor's layers through their public calls:
// parse, the scan plan's file loop (decode and process), Results and
// Write. Two probe passes over the same files split the loop: a
// metadata-only pass, and a decode pass that processes nothing. Each
// traced query follows the same query untraced.
func (w *scan) ledger(rec *recorder, m *meter, out map[string]float64, until time.Time) error {
	var base untracedMean
	var records, processed, nodes int64
	var metaAllocs, decodeAllocs uint64
	var ops int
	for _, text := range w.texts {
		if err := checkBypass(text, w.c.files, serialOpts); err != nil {
			return fmt.Errorf("scan: %w", err)
		}
	}
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		q := i % len(fileQueries)
		base.add(w.timeQuery(m, q))
		runtime.GC()
		root := rec.start("scan.query", 0)
		rows, st, err := w.tracedQuery(rec, root, q)
		rec.end(root, 1)
		if err != nil {
			m.fail(1)
			continue
		}
		m.done(1)
		ops++
		if err := w.c.tally.check(fileQueries[q], rows); err != nil {
			m.mismatch(err.Error())
		}
		records += st.records
		processed += st.processed
		nodes = st.nodes
		if q != 0 {
			continue // one probe per query cycle keeps the loop mostly queries
		}
		probe := rec.start("scan.probe", 0)
		ma, da, err := probeDecode(rec, probe, w.c.files)
		rec.end(probe, 0)
		if err != nil {
			return err
		}
		metaAllocs += ma
		decodeAllocs += da
	}
	if ops == 0 {
		return fmt.Errorf("no traced query succeeded")
	}
	tot := rec.totals()
	recs := float64(records)
	n := float64(ops)
	// the probe passes ran once per cycle over the same files; scale them
	// to per-record figures by the records they decoded
	probed := float64(tot["calformat.decode"].N)
	meta := nsOf(tot["calformat.meta"]) / probed
	decode := nsOf(tot["calformat.decode"]) / probed
	out["calformat.meta_ns_per_record"] = meta
	out["calformat.decode_ns_per_record"] = decode - meta
	out["calformat.decode_allocs_per_record"] = (float64(decodeAllocs) - float64(metaAllocs)) / probed
	out["query.process_ns_per_record"] = nsOf(tot["query.scan"])/recs - decode
	out["query.where_pass_ratio"] = float64(processed) / recs
	out["calql.parse_us"] = nsOf(tot["calql.parse"]) / n / 1e3
	out["query.results_ms"] = nsOf(tot["query.results"]) / n / 1e6
	out["query.format_ms"] = nsOf(tot["query.format"]) / n / 1e6
	out["contexttree.nodes"] = float64(nodes)
	ledgerResidual(out, tot["scan.query"], base.ns())
	return nil
}

// queryStats are the counts one traced query took.
type queryStats struct {
	records, processed, nodes int64
}

// tracedQuery runs query q of the cycle as the serial executor does, one
// span per layer call.
func (w *scan) tracedQuery(rec *recorder, root, q int) ([]snapshot.FlatRecord, queryStats, error) {
	var st queryStats
	id := rec.start("calql.parse", root)
	pq, err := calql.Parse(w.texts[q])
	rec.end(id, 1)
	if err != nil {
		return nil, st, err
	}
	reg := attr.NewRegistry()
	tree := contexttree.New()
	id = rec.start("query.scan", root)
	eng, err := query.New(pq, reg)
	if err != nil {
		rec.end(id, 0)
		return nil, st, err
	}
	plan := query.NewScanPlan(pq, query.ScanOptions{})
	nrecs, _, err := plan.ScanFiles(eng, w.c.files, reg, tree)
	rec.end(id, int64(nrecs))
	if err != nil {
		return nil, st, err
	}
	st = queryStats{records: int64(nrecs), nodes: int64(tree.Len())}
	if db := eng.DB(); db != nil {
		st.processed = int64(db.Processed())
	}
	id = rec.start("query.results", root)
	rows, err := eng.Results()
	rec.end(id, int64(len(rows)))
	if err != nil {
		return nil, st, err
	}
	id = rec.start("query.format", root)
	w.out.Reset()
	err = eng.Write(&w.out, rows)
	rec.end(id, int64(len(rows)))
	return rows, st, err
}

// probeDecode times a metadata-only pass and a decode-only pass over the
// files, each into a fresh registry and tree, and returns the heap
// objects each allocated.
func probeDecode(rec *recorder, parent int, files []string) (metaAllocs, decodeAllocs uint64, err error) {
	pass := func(name string, body func(r *calformat.Reader, size int64) (int64, error)) (uint64, error) {
		reg := attr.NewRegistry()
		tree := contexttree.New()
		m0 := heapMallocs()
		id := rec.start(name, parent)
		var n int64
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return 0, err
			}
			k, err := body(calformat.NewReader(f, reg, tree), fi.Size())
			f.Close()
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", name, filepath.Base(path), err)
			}
			n += k
		}
		rec.end(id, n)
		return heapMallocs() - m0, nil
	}
	metaAllocs, err = pass("calformat.meta", func(r *calformat.Reader, size int64) (int64, error) {
		return 0, r.ScanMetaUntil(size)
	})
	if err != nil {
		return 0, 0, err
	}
	decodeAllocs, err = pass("calformat.decode", func(r *calformat.Reader, _ int64) (int64, error) {
		var fr snapshot.FlatRecord
		var n int64
		for {
			err := r.NextInto(&fr)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n++
		}
	})
	return metaAllocs, decodeAllocs, err
}
