package query

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/obs"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// The file query executor. The scan plan (scan.go) turns the input files
// into scan units — one per file, with index-excluded files and blocks
// already dropped — and the units are dealt round-robin to workers. Each
// worker owns a private read path (a fresh context tree per unit,
// calformat reader) and a private engine — and therefore a private
// aggregation-database shard — and the shards are folded together with
// the same DB.Merge the cross-process reduction uses (Section IV-C),
// applied in-process up a pairwise tree. The attribute registry is shared
// (it is mutex-protected), so attribute ids, LET definitions, and result
// attributes resolve identically across shards.
//
// Serial execution is the one-worker case: the worker runs inline and
// nothing is merged.
//
// Output is the same for every worker count: unit→worker assignment and
// the merge order are static functions of (len(units), jobs), aggregation
// state merges exactly (integer sums stay integers), the flush order is
// the sorted key encoding (insertion-order independent), and
// non-aggregating rows are reassembled in file order.

var (
	telShards  = telemetry.NewCounter("caligo.query.shards")
	telMergeNS = telemetry.NewCounter("caligo.query.merge.ns")
)

// DefaultJobs is the worker count used when jobs <= 0: one per available
// CPU, the sweet spot for the read+aggregate workers (they are CPU-bound
// on decoding).
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// RunShardedPlan executes q over the files with up to jobs read+aggregate
// workers and returns the finalized result rows. jobs <= 0 selects
// DefaultJobs(); the effective worker count never exceeds the scan-unit
// count, and one worker runs inline. The registry is shared across
// workers and carries the result attributes afterwards. Worker wall times
// and throughput are accounted into aq (nil disables attribution), and
// the query ID is stamped on the worker and merge spans. The caller keeps
// plan to read its scan statistics afterwards (EXPLAIN ANALYZE does).
func RunShardedPlan(plan *ScanPlan, q *calql.Query, reg *attr.Registry, files []string, jobs int, aq *obs.ActiveQuery) ([]snapshot.FlatRecord, error) {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	units := plan.PlanUnits(files, jobs)
	jobs = max(1, min(jobs, len(units)))
	telShards.Add(uint64(jobs))

	shards := make([]*Engine, jobs)
	errs := make([]error, jobs)
	// several workers collect a non-aggregating query's rows per unit
	// (disjoint indices), so they can be reassembled in file order
	var rowsByUnit [][]snapshot.FlatRecord
	if jobs > 1 {
		rowsByUnit = make([][]snapshot.FlatRecord, len(units))
	}
	work := func(w int) {
		shards[w], errs[w] = plan.runWorker(q, reg, units, w, jobs, rowsByUnit, aq)
	}
	if jobs == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	root := shards[0]
	if jobs > 1 {
		if err := mergeShards(shards, rowsByUnit, aq); err != nil {
			return nil, err
		}
	}
	if st := plan.Stats(); st.CacheHits+st.CacheMisses+st.CacheIncremental > 0 {
		aq.CacheStats(uint64(st.CacheHits), uint64(st.CacheMisses), uint64(st.CacheIncremental))
	}
	// the shared postprocess tail (post-ops, ORDER BY, LIMIT) runs once,
	// over the fully merged shard 0
	var postStart time.Time
	if aq != nil {
		postStart = time.Now()
	}
	rows, err := root.Results()
	if aq != nil {
		aq.Phase("postprocess", time.Since(postStart))
	}
	return rows, err
}

// mergeShards folds every shard into shard 0. Aggregation databases merge
// up a pairwise tree: at stride s, shard i+s folds into shard i. Merges
// within a level touch disjoint (dst, src) pairs and run concurrently;
// the merge order is a static function of the worker count, so grouping
// — and with it the output — is deterministic. The rows a
// non-aggregating query collected are concatenated in unit order instead.
func mergeShards(shards []*Engine, rowsByUnit [][]snapshot.FlatRecord, aq *obs.ActiveQuery) error {
	root := shards[0]
	if root.db == nil {
		var rows []snapshot.FlatRecord
		for _, rs := range rowsByUnit {
			rows = append(rows, rs...)
		}
		root.rows = rows
		return nil
	}
	start := time.Now()
	errs := make([]error, len(shards))
	for stride := 1; stride < len(shards); stride *= 2 {
		var mw sync.WaitGroup
		for i := 0; i+stride < len(shards); i += 2 * stride {
			mw.Add(1)
			go func(dst, src int) {
				defer mw.Done()
				sp := trace.Begin("query.merge")
				if qid := aq.ID(); qid != 0 {
					sp.ArgInt("qid", int64(qid))
				}
				sp.ArgInt("dst", int64(dst))
				sp.ArgInt("src", int64(src))
				if err := shards[dst].db.Merge(shards[src].db); err != nil {
					errs[dst] = fmt.Errorf("query: merge shard %d into %d: %w", src, dst, err)
				}
				sp.ArgInt("buckets", int64(shards[dst].db.Len()))
				sp.End()
			}(i, i+stride)
		}
		mw.Wait()
	}
	mergeWall := time.Since(start)
	telMergeNS.Add(uint64(mergeWall.Nanoseconds()))
	aq.Phase("merge", mergeWall)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorker is worker w: it builds a private engine, scans its
// round-robin unit subset (units w, w+jobs, ...) into it, and returns it.
// A worker is one query.shard span, and inside it the read and aggregate
// phases the serial plan names.
func (p *ScanPlan) runWorker(q *calql.Query, reg *attr.Registry, units []Unit, w, jobs int,
	rowsByUnit [][]snapshot.FlatRecord, aq *obs.ActiveQuery) (*Engine, error) {
	sp := trace.Begin("query.shard")
	sp.SetTid(w)
	defer sp.End()
	rsp := trace.Begin("query.read")
	asp := trace.Begin("query.aggregate")
	if qid := aq.ID(); qid != 0 {
		sp.ArgInt("qid", int64(qid))
		rsp.ArgInt("qid", int64(qid))
		asp.ArgInt("qid", int64(qid))
	}
	var start time.Time
	if aq != nil {
		start = time.Now()
	}
	eng, err := New(q, reg)
	if err != nil {
		asp.End()
		rsp.End()
		return nil, err
	}
	nunits, records, bytes, err := p.scanUnits(eng, reg, units, w, jobs, rowsByUnit)
	asp.ArgInt("records_in", int64(records))
	asp.ArgInt("records_out", int64(eng.Size()))
	asp.End()
	rsp.ArgInt("files", int64(nunits))
	rsp.ArgInt("records", int64(records))
	rsp.ArgInt("bytes", bytes)
	rsp.End()
	if err != nil {
		return nil, err
	}
	sp.ArgInt("worker", int64(w))
	sp.ArgInt("units", int64(nunits))
	sp.ArgInt("records", int64(records))
	sp.ArgInt("bytes", bytes)
	aq.ShardDone(time.Since(start), uint64(records), uint64(bytes))
	return eng, nil
}

// scanUnits is the one loop that feeds files to engines: it scans units
// w, w+jobs, ... into eng, each unit through a fresh context tree (cheaper
// than one tree growing across files). With rowsByUnit set, the rows a
// non-aggregating query collects move there per unit.
func (p *ScanPlan) scanUnits(eng *Engine, reg *attr.Registry, units []Unit, w, jobs int,
	rowsByUnit [][]snapshot.FlatRecord) (nunits, records int, bytes int64, err error) {
	for ui := w; ui < len(units); ui += jobs {
		n, nb, err := p.ScanUnit(eng, units[ui], reg, contexttree.New())
		nunits++
		records += n
		bytes += nb
		if err != nil {
			return nunits, records, bytes, err
		}
		if rowsByUnit != nil && eng.db == nil {
			rowsByUnit[ui] = eng.rows
			eng.rows = nil
		}
	}
	return nunits, records, bytes, nil
}
