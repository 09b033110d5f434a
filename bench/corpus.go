package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// rec is one generated input snapshot record, in the plain form the
// oracle tallies. It mirrors a ParaDiS time-series profile record: one
// region (a kernel or an MPI function) of one main-loop iteration on one
// rank, carrying the visit count and runtime that on-line aggregation
// produced.
type rec struct {
	rank   int64
	iter   int64  // -1: an initialization-phase record, no iteration
	kernel string // "" when the record has no kernel
	mpifn  string // "" when the record has no MPI function
	count  uint64
	dur    int64
}

// corpusShape sizes one generated file.
type corpusShape struct {
	iterations int // main-loop iterations per file
	kernels    int // distinct computational kernels
	mpiFns     int // distinct MPI functions
	initRecs   int // initialization-phase records per file
}

// ParaDiS-shaped region names: a few named kernels, then numbered ones.
var kernelBase = []string{
	"force-calc", "seg-seg-force", "mobility", "integrate", "collision",
	"remesh", "topology", "cell-charge", "migration", "cross-slip",
}

var mpiBase = []string{
	"MPI_Allreduce", "MPI_Sendrecv", "MPI_Barrier", "MPI_Waitall",
	"MPI_Isend", "MPI_Irecv", "MPI_Allgather", "MPI_Bcast",
}

func kernelName(i int) string {
	if i < len(kernelBase) {
		return kernelBase[i]
	}
	return fmt.Sprintf("kernel-%02d", i)
}

func mpiName(i int) string {
	if i < len(mpiBase) {
		return mpiBase[i]
	}
	return fmt.Sprintf("MPI_Op%02d", i)
}

// genRanks draws n distinct rank ids.
func genRanks(rnd *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool)
	out := make([]int64, 0, n)
	for len(out) < n {
		r := rnd.Int63n(100000)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// genIteration draws one main-loop iteration of one rank: every kernel
// and every MPI function runs once, as in the paper's ParaDiS dataset,
// with seeded visit counts and runtimes, hotter regions (lower index)
// taking longer.
func genIteration(rnd *rand.Rand, sh corpusShape, rank, it int64) []rec {
	var out []rec
	for k := 0; k < sh.kernels; k++ {
		scale := int64(50000/(k+1) + 100)
		out = append(out, rec{rank: rank, iter: it, kernel: kernelName(k),
			count: 1 + uint64(rnd.Intn(40)), dur: scale + rnd.Int63n(scale)})
	}
	for m := 0; m < sh.mpiFns; m++ {
		scale := int64(20000/(m+1) + 100)
		out = append(out, rec{rank: rank, iter: it, mpifn: mpiName(m),
			count: 1 + uint64(rnd.Intn(40)), dur: scale + rnd.Int63n(scale)})
	}
	return out
}

// genFile draws one rank's whole file.
func genFile(rnd *rand.Rand, sh corpusShape, rank int64) []rec {
	var out []rec
	for i := 0; i < sh.initRecs; i++ {
		out = append(out, rec{rank: rank, iter: -1, count: 1, dur: 1000 + rnd.Int63n(5000)})
	}
	for it := 0; it < sh.iterations; it++ {
		out = append(out, genIteration(rnd, sh, rank, int64(it))...)
	}
	return out
}

// writeStream writes recs as one self-contained .cali stream through
// calformat.Writer: rank and iteration are context-tree nodes, regions
// nest below them, count and duration are immediate values. flag opens
// the file (create or append); an appended stream re-defines its
// attributes, which readers accept.
func writeStream(path string, flag int, recs []rec) error {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	reg := attr.NewRegistry()
	tree := contexttree.New()
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	mpifn := reg.MustCreate("mpi.function", attr.String, attr.Nested)
	rankA := reg.MustCreate("mpi.rank", attr.Int, 0)
	iterA := reg.MustCreate("iteration", attr.Int, 0)
	phase := reg.MustCreate("phase", attr.String, attr.Nested)
	count := reg.MustCreate("aggregate.count", attr.Uint, attr.AsValue|attr.Aggregatable|attr.SkipEvents)
	dur := reg.MustCreate("sum#time.duration", attr.Int, attr.AsValue|attr.Aggregatable|attr.SkipEvents)
	w := calformat.NewWriter(f, reg, tree)
	for _, r := range recs {
		node := tree.GetChild(contexttree.InvalidNode, rankA, attr.IntV(r.rank))
		if r.iter < 0 {
			node = tree.GetChild(node, phase, attr.StringV("init"))
		} else {
			node = tree.GetChild(node, iterA, attr.IntV(r.iter))
		}
		if r.kernel != "" {
			node = tree.GetChild(node, kernel, attr.StringV(r.kernel))
		}
		if r.mpifn != "" {
			node = tree.GetChild(node, mpifn, attr.StringV(r.mpifn))
		}
		var b snapshot.Builder
		b.AddNode(node)
		b.AddImmediate(count, attr.UintV(r.count))
		b.AddImmediate(dur, attr.IntV(r.dur))
		if err := w.WriteRecord(b.Record()); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corpus is a generated set of per-rank files and the oracle's tally of
// everything written into them.
type corpus struct {
	shape   corpusShape
	files   []string
	ranks   []int64
	tally   *tally
	records int     // records written, over all files
	nextIt  []int64 // next iteration number per file, for appends
}

// genCorpus writes nfiles seeded files into dir. The seed also picks the
// kernel the selective query keeps, among the twenty hottest.
func genCorpus(dir string, seed int64, nfiles int, sh corpusShape) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))
	c := &corpus{shape: sh, ranks: genRanks(rnd, nfiles)}
	sel := kernelName(rnd.Intn(min(sh.kernels, 20)))
	sorted := append([]int64(nil), c.ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c.tally = newTally(sel, sorted[nfiles/4])
	for _, rank := range c.ranks {
		recs := genFile(rnd, sh, rank)
		path := filepath.Join(dir, fmt.Sprintf("rank-%05d.cali", rank))
		if err := writeStream(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, recs); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		c.files = append(c.files, path)
		c.nextIt = append(c.nextIt, int64(sh.iterations))
		c.records += len(recs)
		for _, r := range recs {
			c.tally.add(r)
		}
	}
	return c, nil
}

// agg is one oracle group: summed visit counts and durations.
type agg struct {
	count uint64
	dur   int64
}

// tally is the oracle: plain maps over the generated records, one per
// benchmark query, independent of caligo's own aggregation code.
type tally struct {
	sel       string             // the kernel the selective query keeps
	rankBelow int64              // the selective query keeps ranks below this one
	byRegion  map[[2]string]agg  // (kernel, mpi.function) -> totals
	byRankIt  map[[2]int64]agg   // (mpi.rank, iteration) -> totals, selected records
	byKernel  map[string]agg     // kernel -> totals
	byRankRg  map[rankRegion]agg // (mpi.rank, kernel, mpi.function, iteration)
}

type rankRegion struct {
	rank, iter    int64
	kernel, mpifn string
}

func newTally(sel string, rankBelow int64) *tally {
	return &tally{
		sel:       sel,
		rankBelow: rankBelow,
		byRegion:  make(map[[2]string]agg),
		byRankIt:  make(map[[2]int64]agg),
		byKernel:  make(map[string]agg),
		byRankRg:  make(map[rankRegion]agg),
	}
}

func (a agg) plus(r rec) agg { return agg{a.count + r.count, a.dur + r.dur} }

// add folds one generated record into every query's expected answer.
func (t *tally) add(r rec) {
	k := [2]string{r.kernel, r.mpifn}
	t.byRegion[k] = t.byRegion[k].plus(r)
	if r.kernel == t.sel && r.rank < t.rankBelow {
		ki := [2]int64{r.rank, r.iter}
		t.byRankIt[ki] = t.byRankIt[ki].plus(r)
	}
	t.byKernel[r.kernel] = t.byKernel[r.kernel].plus(r)
	rr := rankRegion{r.rank, r.iter, r.kernel, r.mpifn}
	t.byRankRg[rr] = t.byRankRg[rr].plus(r)
}

// clone copies the tally, so a reset corpus can reset its oracle too.
func (t *tally) clone() *tally {
	c := newTally(t.sel, t.rankBelow)
	for k, v := range t.byRegion {
		c.byRegion[k] = v
	}
	for k, v := range t.byRankIt {
		c.byRankIt[k] = v
	}
	for k, v := range t.byKernel {
		c.byKernel[k] = v
	}
	for k, v := range t.byRankRg {
		c.byRankRg[k] = v
	}
	return c
}

// The benchmark's queries. The file workloads cycle the first three;
// mpi-reduce runs the last.
const (
	qRegion = iota // non-selective GROUP BY
	qSelect        // selective WHERE
	qTop           // ORDER BY / LIMIT with a post-op
	qRank          // high-cardinality GROUP BY including mpi.rank
)

// topN is the LIMIT of the ORDER BY query.
const topN = 10

// queryText returns the text of query q. The selective query keeps one
// kernel on a quarter of the ranks, so sidecar zone maps can skip the
// other files.
func (t *tally) queryText(q int) string {
	switch q {
	case qRegion:
		return "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel, mpi.function"
	case qSelect:
		return "AGGREGATE sum(aggregate.count), sum(sum#time.duration) WHERE kernel = " +
			strconv.Quote(t.sel) + ", mpi.rank < " + strconv.FormatInt(t.rankBelow, 10) +
			" GROUP BY mpi.rank, iteration"
	case qTop:
		return "AGGREGATE sum(sum#time.duration), percent_total(sum#sum#time.duration) GROUP BY kernel " +
			"ORDER BY sum#sum#time.duration DESC LIMIT " + strconv.Itoa(topN)
	default:
		return "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY mpi.rank, kernel, mpi.function, iteration"
	}
}

// rowStr reads a row's value of label as text ("" when absent).
func rowStr(row snapshot.FlatRecord, label string) string {
	v, ok := row.GetByName(label)
	if !ok {
		return ""
	}
	return v.String()
}

// rowInt reads a row's value of label as an integer (-1 when absent).
func rowInt(row snapshot.FlatRecord, label string) int64 {
	v, ok := row.GetByName(label)
	if !ok {
		return -1
	}
	return v.AsInt()
}

// rowAgg reads a row's summed count and duration.
func rowAgg(row snapshot.FlatRecord) agg {
	var a agg
	if v, ok := row.GetByName("sum#aggregate.count"); ok {
		a.count = v.AsUint()
	}
	if v, ok := row.GetByName("sum#sum#time.duration"); ok {
		a.dur = v.AsInt()
	}
	return a
}

// check compares query q's result rows with the tally and returns the
// first disagreement, or nil.
func (t *tally) check(q int, rows []snapshot.FlatRecord) error {
	switch q {
	case qRegion:
		return checkGroups(rows, t.byRegion, func(row snapshot.FlatRecord) [2]string {
			return [2]string{rowStr(row, "kernel"), rowStr(row, "mpi.function")}
		})
	case qSelect:
		return checkGroups(rows, t.byRankIt, func(row snapshot.FlatRecord) [2]int64 {
			return [2]int64{rowInt(row, "mpi.rank"), rowInt(row, "iteration")}
		})
	case qTop:
		return t.checkTop(rows)
	default:
		return checkGroups(rows, t.byRankRg, func(row snapshot.FlatRecord) rankRegion {
			return rankRegion{rowInt(row, "mpi.rank"), rowInt(row, "iteration"),
				rowStr(row, "kernel"), rowStr(row, "mpi.function")}
		})
	}
}

// checkGroups requires exactly one row per expected group, with the
// expected totals.
func checkGroups[K comparable](rows []snapshot.FlatRecord, want map[K]agg, key func(snapshot.FlatRecord) K) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, want %d groups", len(rows), len(want))
	}
	seen := make(map[K]bool, len(rows))
	for _, row := range rows {
		k := key(row)
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("unexpected group %v", k)
		}
		if seen[k] {
			return fmt.Errorf("group %v twice", k)
		}
		seen[k] = true
		if got := rowAgg(row); got != w {
			return fmt.Errorf("group %v: got %+v, want %+v", k, got, w)
		}
	}
	return nil
}

// checkTop verifies the ORDER BY ... DESC LIMIT query: the rows are the
// topN kernels by summed duration in descending order, and each row's
// percent_total is its share of the total over all kernels.
func (t *tally) checkTop(rows []snapshot.FlatRecord) error {
	type kv struct {
		kernel string
		dur    int64
	}
	all := make([]kv, 0, len(t.byKernel))
	var total int64
	for k, a := range t.byKernel {
		all = append(all, kv{k, a.dur})
		total += a.dur
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dur > all[j].dur })
	n := min(topN, len(all))
	if len(rows) != n {
		return fmt.Errorf("%d rows, want %d", len(rows), n)
	}
	for i, row := range rows {
		k := rowStr(row, "kernel")
		w, ok := t.byKernel[k]
		if !ok {
			return fmt.Errorf("row %d: unexpected kernel %q", i, k)
		}
		got := rowAgg(row).dur
		if got != w.dur || got != all[i].dur {
			return fmt.Errorf("row %d (%q): dur %d, want %d at rank %d (kernel total %d)", i, k, got, all[i].dur, i, w.dur)
		}
		pv, ok := row.GetByName("percent_total#sum#sum#time.duration")
		if !ok {
			return fmt.Errorf("row %d: no percent_total", i)
		}
		want := 100 * float64(w.dur) / float64(total)
		if math.Abs(pv.AsFloat()-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("row %d (%q): percent %v, want %v", i, k, pv.AsFloat(), want)
		}
	}
	return nil
}
