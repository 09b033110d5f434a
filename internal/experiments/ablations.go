package experiments

import (
	"bytes"
	"fmt"
	"io"

	"caligo/internal/apps/paradis"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/pquery"
	"caligo/internal/snapshot"
)

// Ablations quantifies the design decisions DESIGN.md §5 calls out, as a
// report (the bench_test.go ablation benchmarks measure the same
// comparisons under `go test -bench`):
//
//  1. reduction-tree fan-in (virtual reduce time per arity), and
//  2. snapshot-stream compression (bytes/record, tree vs flat).
//
// Timing-based ablations (key encoding, lock contention, op dispatch) are
// left to the benchmarks, where the harness controls measurement noise.
func Ablations() (*Report, error) {
	r := &Report{ID: "ablations", Title: "Design ablations (DESIGN.md §5)"}

	// --- fan-in sweep over the tree reduction (64 ranks) -----------------
	ds := paradis.Config{Kernels: 20, MPIFunctions: 10, Iterations: 5, ExtraRecords: 0}
	provider := func(rank int) (io.ReadCloser, error) {
		var buf bytes.Buffer
		if err := paradis.WriteRank(&buf, rank, ds); err != nil {
			return nil, err
		}
		return io.NopCloser(&buf), nil
	}
	const query = "AGGREGATE sum(sum#time.duration) GROUP BY kernel, mpi.function"
	r.Addf("reduction-tree fan-in (64 ranks, virtual reduce time):")
	reduceTimes := map[int]float64{}
	for _, fanin := range []int{2, 4, 8, 16} {
		world, err := mpi.NewWorld(64)
		if err != nil {
			return nil, err
		}
		res, err := pquery.Run(world, query, pquery.Input{Stream: provider}, fanin, nil)
		if err != nil {
			return nil, fmt.Errorf("fanin %d: %w", fanin, err)
		}
		reduceTimes[fanin] = res.Timing.ReduceVirt
		r.Addf("  fan-in %2d: %8.1f us", fanin, res.Timing.ReduceVirt/1e3)
	}
	r.Check("binary fan-in minimizes virtual reduce time (the paper's logarithmic tree)",
		reduceTimes[2] <= reduceTimes[4] && reduceTimes[2] <= reduceTimes[8] &&
			reduceTimes[2] <= reduceTimes[16],
		"f2=%.1fus f4=%.1fus f8=%.1fus f16=%.1fus",
		reduceTimes[2]/1e3, reduceTimes[4]/1e3, reduceTimes[8]/1e3, reduceTimes[16]/1e3)

	// --- snapshot encoding: context-tree refs vs flat entries ------------
	treeBytes, flatBytes, nRecs, err := snapshotEncodingSizes()
	if err != nil {
		return nil, err
	}
	r.Addf("snapshot stream encoding (%d records):", nRecs)
	r.Addf("  tree-compressed: %6d bytes (%5.1f /record)", treeBytes, float64(treeBytes)/float64(nRecs))
	r.Addf("  flat entries:    %6d bytes (%5.1f /record)", flatBytes, float64(flatBytes)/float64(nRecs))
	r.Check("context-tree compression shrinks the stream (the paper's snapshot design)",
		treeBytes < flatBytes, "%.0f%% of flat size", float64(treeBytes)/float64(flatBytes)*100)

	// --- per-thread DBs merged at flush equal a single shared DB ---------
	eq, err := perThreadMergeEquivalence()
	if err != nil {
		return nil, err
	}
	r.Check("per-thread databases merged at flush equal a single shared database (lock-free design is result-neutral)",
		eq, "verified over 4x500 records")
	return r, nil
}

// snapshotEncodingSizes writes the same records both ways and returns the
// stream sizes.
func snapshotEncodingSizes() (treeBytes, flatBytes, n int, err error) {
	reg := attr.NewRegistry()
	tree := contexttree.New()
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	iter := reg.MustCreate("iteration", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue)
	names := []string{"main", "solver", "smoother", "residual"}
	var recs []snapshot.Record
	for i := 0; i < 256; i++ {
		var sb snapshot.Builder
		node := contexttree.InvalidNode
		for d := 0; d <= i%3; d++ {
			node = tree.GetChild(node, fn, attr.StringV(names[(i+d)%len(names)]))
		}
		sb.AddNode(node)
		sb.AddNode(tree.GetChild(contexttree.InvalidNode, iter, attr.IntV(int64(i%8))))
		sb.AddImmediate(dur, attr.IntV(int64(i)))
		recs = append(recs, sb.Record())
	}
	var treeStream bytes.Buffer
	w := calformat.NewWriter(&treeStream, reg, tree)
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, 0, err
	}
	var flatStream bytes.Buffer
	fw := calformat.NewWriter(&flatStream, reg, tree)
	for _, rec := range recs {
		flat, err := rec.Unpack(tree, reg)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := fw.WriteFlat(flat); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := fw.Flush(); err != nil {
		return 0, 0, 0, err
	}
	return treeStream.Len(), flatStream.Len(), len(recs), nil
}

// perThreadMergeEquivalence compares per-thread DBs + merge against one
// shared DB over the same records.
func perThreadMergeEquivalence() (bool, error) {
	reg := attr.NewRegistry()
	region := reg.MustCreate("region", attr.String, attr.Nested)
	work := reg.MustCreate("work", attr.Int, attr.AsValue)
	scheme := core.MustScheme([]string{"region"},
		[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: "work"}})

	shared, err := core.NewDB(scheme, reg)
	if err != nil {
		return false, err
	}
	parts := make([]*core.DB, 4)
	for i := range parts {
		parts[i], err = core.NewDB(scheme, reg)
		if err != nil {
			return false, err
		}
	}
	names := []string{"a", "b", "c"}
	for i := 0; i < 2000; i++ {
		rec := snapshot.FlatRecord{
			{Attr: region, Value: attr.StringV(names[i%3])},
			{Attr: work, Value: attr.IntV(int64(i % 97))},
		}
		shared.Update(rec)
		parts[i%4].Update(rec)
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			return false, err
		}
	}
	a, err := shared.FlushRecords()
	if err != nil {
		return false, err
	}
	b, err := merged.FlushRecords()
	if err != nil {
		return false, err
	}
	if len(a) != len(b) {
		return false, nil
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false, nil
		}
	}
	return true, nil
}
