// Package calql is the public interface to the aggregation description
// language and query engine: parse queries in the SQL-like language of
// Section III-B and run them over .cali datasets — serially, across
// in-process workers, or with the emulated-MPI parallel query
// application of Section IV-C — or over
// records flushed from a live caliper.Channel (on-line analytical
// aggregation).
package calql

import (
	"fmt"
	"io"
	"os"
	"strings"

	"caligo/caliper"
	"caligo/internal/attr"
	internalcalql "caligo/internal/calql"
	"caligo/internal/mpi"
	"caligo/internal/obs"
	"caligo/internal/pquery"
	"caligo/internal/qcache"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/trace"
)

// Query is a parsed query in the aggregation description language.
type Query = internalcalql.Query

// ExplainMode marks EXPLAIN / EXPLAIN ANALYZE statements on a Query.
type ExplainMode = internalcalql.ExplainMode

// Explain modes (the Query.Explain field).
const (
	ExplainNone    = internalcalql.ExplainNone
	ExplainPlan    = internalcalql.ExplainPlan
	ExplainAnalyze = internalcalql.ExplainAnalyze
)

// Parse parses a query, e.g.
//
//	AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration
func Parse(text string) (*Query, error) { return internalcalql.Parse(text) }

// MustParse is Parse panicking on error, for static query definitions.
func MustParse(text string) *Query { return internalcalql.MustParse(text) }

// Resultset holds query output rows together with the attribute registry
// they resolve against.
type Resultset struct {
	Rows  []snapshot.FlatRecord
	Reg   *attr.Registry
	Query *Query
}

// Render writes the resultset in the query's FORMAT (default: table).
func (rs *Resultset) Render(w io.Writer) error {
	eng, err := query.New(rs.Query, rs.Reg)
	if err != nil {
		return err
	}
	return eng.Write(w, rs.Rows)
}

// String renders the resultset as text.
func (rs *Resultset) String() string {
	var sb strings.Builder
	if err := rs.Render(&sb); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return sb.String()
}

// Options control file query execution. The zero value runs serially
// with sidecar indexes on and the CALIGO_CACHE cache, if any. Every
// setting gives byte-identical output; only the emulated-MPI path
// orders non-aggregating rows by rank.
type Options struct {
	// Jobs > 1 runs that many in-process read+aggregate workers (sharded
	// multi-core execution): files are dealt round-robin, each worker
	// aggregates its subset into a private database shard, and the shards
	// fold together pairwise before the shared postprocess tail. Jobs < 0
	// selects one worker per CPU. The count never exceeds the file count;
	// 0 and 1 run serially.
	Jobs int
	// Ranks > 0 runs the emulated-MPI parallel query application instead:
	// that many ranks each aggregate a round-robin file subset (as in the
	// paper's weak-scaling setup), and the partial databases combine in a
	// logarithmic tree reduction.
	Ranks int
	// NoIndex disables sidecar index use: every file is fully decoded,
	// with no file/block pruning and no projection pushdown. The flag
	// exists for comparison and as an escape hatch.
	NoIndex bool
	// CacheDir enables the per-file aggregate state cache (internal/
	// qcache) rooted at the given directory. Empty falls back to the
	// CALIGO_CACHE environment variable; if that is empty too, caching is
	// off. A directory that cannot be opened leaves caching off.
	CacheDir string
	// NoCache force-disables the aggregate cache, overriding CacheDir and
	// CALIGO_CACHE.
	NoCache bool
}

// cacheDir resolves the configured cache directory ("" = caching off).
func (o Options) cacheDir() string {
	if o.NoCache {
		return ""
	}
	if o.CacheDir != "" {
		return o.CacheDir
	}
	return os.Getenv("CALIGO_CACHE")
}

// execution is a file query's mode as resolved from Options against its
// inputs: the worker count fixed and the cache store opened (or not). A
// query and the plan EXPLAIN prints for it come from the same execution.
type execution struct {
	files    []string
	jobs     int
	ranks    int
	scan     query.ScanOptions
	cacheDir string // shown in the plan; "" when no store is open
}

func (o Options) resolve(files []string) *execution {
	x := &execution{files: files, jobs: o.Jobs, ranks: o.Ranks, scan: query.ScanOptions{UseIndex: !o.NoIndex}}
	if x.jobs < 0 {
		x.jobs = query.DefaultJobs()
	}
	x.jobs = max(1, min(x.jobs, len(files)))
	if dir := o.cacheDir(); dir != "" {
		// an unopenable cache directory silently disables caching: the
		// query must answer regardless
		if store, err := qcache.Shared(dir); err == nil {
			x.scan.Cache = store
			x.cacheDir = dir
		}
	}
	return x
}

// plan builds the EXPLAIN plan of q for this execution.
func (x *execution) plan(q *Query) (*query.Plan, error) {
	return query.BuildPlan(q, query.PlanOptions{
		Inputs:   len(x.files),
		Ranks:    x.ranks,
		Jobs:     x.jobs,
		UseIndex: x.scan.UseIndex,
		Cache:    x.scan.Cache != nil,
		CacheDir: x.cacheDir,
	})
}

// QueryFiles runs a query serially over the given .cali files, merging
// them into one dataset first (the off-line analytical aggregation path).
// Sidecar block indexes (see calformat.BuildFileIndex) are consulted when
// present: files and blocks the WHERE clause cannot match are skipped,
// and aggregating queries decode only the attributes they reference.
func QueryFiles(queryText string, files []string) (*Resultset, error) {
	return QueryFilesOpt(queryText, files, Options{})
}

// QueryFilesOpt runs a query over the given .cali files in the mode opts
// selects.
func QueryFilesOpt(queryText string, files []string, opts Options) (*Resultset, error) {
	res, err := opts.resolve(files).run(queryText)
	if err != nil {
		return nil, err
	}
	return res.Resultset, nil
}

// ParallelTiming re-exports the parallel query phase breakdown.
type ParallelTiming = pquery.Timing

// ParallelResult bundles a parallel query's resultset with its timing.
type ParallelResult struct {
	*Resultset
	Timing           ParallelTiming
	RecordsProcessed uint64
}

// QueryFilesParallelOpt runs a query with the emulated-MPI parallel query
// application over ranks ranks (see Options.Ranks); ranks <= 0 selects
// one rank per file. Each rank scans its file subset through the
// index-aware scan layer, so sidecar indexes prune files and blocks per
// rank.
func QueryFilesParallelOpt(queryText string, files []string, ranks int, opts Options) (*ParallelResult, error) {
	if ranks <= 0 {
		ranks = max(1, len(files))
	}
	opts.Ranks = ranks
	return opts.resolve(files).run(queryText)
}

// run executes a file query, attributed as one query (obs.BeginQuery).
// Every file entry point and EXPLAIN ANALYZE come through here.
func (x *execution) run(queryText string) (*ParallelResult, error) {
	engine := "serial"
	switch {
	case x.ranks > 0:
		engine = "mpi"
	case x.jobs > 1:
		engine = "sharded"
	}
	aq := obs.BeginQuery(queryText, engine)
	var res *ParallelResult
	var err error
	if x.ranks > 0 {
		res, err = x.runRanks(queryText, aq)
	} else {
		res, err = x.runWorkers(queryText, aq)
	}
	if err == nil {
		aq.SetRows(len(res.Rows))
	}
	aq.End(err)
	return res, err
}

// runWorkers runs the in-process executor: serial, or sharded over
// x.jobs workers.
func (x *execution) runWorkers(queryText string, aq *obs.ActiveQuery) (*ParallelResult, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	reg := attr.NewRegistry()
	rows, err := query.RunShardedPlan(query.NewScanPlan(q, x.scan), q, reg, x.files, x.jobs, aq)
	if err != nil {
		return nil, err
	}
	return &ParallelResult{Resultset: &Resultset{Rows: rows, Reg: reg, Query: q}}, nil
}

// runRanks runs the emulated-MPI parallel query application.
func (x *execution) runRanks(queryText string, aq *obs.ActiveQuery) (*ParallelResult, error) {
	world, err := mpi.NewWorld(x.ranks)
	if err != nil {
		return nil, err
	}
	filesFor := func(rank int) []string {
		// round-robin assignment: rank r reads files r, r+ranks, ...
		var fl []string
		for i := rank; i < len(x.files); i += x.ranks {
			fl = append(fl, x.files[i])
		}
		return fl
	}
	res, err := pquery.Run(world, queryText, pquery.Input{Files: filesFor, Scan: x.scan}, 0, aq)
	if err != nil {
		return nil, err
	}
	aq.Phase("local", res.Timing.LocalWall)
	if reduceWall := res.Timing.TotalWall - res.Timing.LocalWall; reduceWall > 0 {
		aq.Phase("reduce", reduceWall)
	}
	return &ParallelResult{
		Resultset:        &Resultset{Rows: res.Rows, Reg: res.Reg, Query: res.Query},
		Timing:           res.Timing,
		RecordsProcessed: res.RecordsProcessed,
	}, nil
}

// Explain executes an EXPLAIN or EXPLAIN ANALYZE statement against the
// given .cali files in the mode opts selects and returns the rendered
// plan. EXPLAIN resolves the plan as a run would (the cache node appears
// only when the cache store opens) without reading the inputs; EXPLAIN
// ANALYZE runs the wrapped query through the same execution as
// QueryFilesOpt, with span tracing scoped to the run, and annotates each
// plan node with measured wall time, record counts, and byte counts. The
// index node reports the prunable conditions and decode projection (or
// that indexing is disabled); under ANALYZE it carries the measured block
// skip statistics.
func Explain(queryText string, files []string, opts Options) (string, error) {
	q, err := Parse(queryText)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainNone {
		return "", fmt.Errorf("calql: not an EXPLAIN statement: %s", queryText)
	}
	x := opts.resolve(files)
	plan, err := x.plan(q)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainAnalyze {
		// scope span collection with Mark/Since rather than Reset, so a
		// concurrent collection (e.g. a -trace flag) keeps its spans
		prev := trace.SetEnabled(true)
		mark := trace.Mark()
		res, err := x.run(q.WithoutExplain().String())
		if err == nil {
			err = res.Render(io.Discard)
		}
		spans := trace.Since(mark)
		trace.SetEnabled(prev)
		if err != nil {
			return "", err
		}
		plan.Annotate(spans)
	}
	var sb strings.Builder
	if err := plan.Write(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// QueryChannel flushes a live measurement channel and runs a query over
// the flushed records (on-line analytical aggregation). The channel's
// registry is shared, so result attributes resolve consistently.
func QueryChannel(queryText string, ch *caliper.Channel) (*Resultset, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	eng, err := query.New(q, ch.Registry())
	if err != nil {
		return nil, err
	}
	if err := ch.FlushEmit(eng.Process); err != nil {
		return nil, err
	}
	rows, err := eng.Results()
	if err != nil {
		return nil, err
	}
	return &Resultset{Rows: rows, Reg: ch.Registry(), Query: q}, nil
}

// QueryRecords runs a query over in-memory records resolved against reg.
func QueryRecords(queryText string, reg *attr.Registry, recs []snapshot.FlatRecord) (*Resultset, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	rows, err := query.Run(q, reg, recs)
	if err != nil {
		return nil, err
	}
	return &Resultset{Rows: rows, Reg: reg, Query: q}, nil
}
