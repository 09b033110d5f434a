package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"caligo/internal/apps/paradis"
	"caligo/internal/mpi"
	"caligo/internal/pquery"
)

// ScalingConfig parameterizes the Figure 4 experiment: weak scaling of
// the MPI-based query application over a ParaDiS-shaped dataset (one
// input file per query process, as in the paper).
type ScalingConfig struct {
	// RankCounts lists the world sizes to measure (paper: up to 4096).
	RankCounts []int
	// Dataset shapes the per-rank input (default: the paper's 2174
	// records per file).
	Dataset paradis.Config
	// Query is the evaluation query (default: the paper's kernel+MPI
	// total-time query producing 85 output records).
	Query string
}

// DefaultScalingConfig measures power-of-4 world sizes up to 1024 ranks.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		RankCounts: []int{1, 4, 16, 64, 256, 1024},
		Dataset:    paradis.DefaultConfig(),
		Query:      paradis.EvaluationQuery,
	}
}

// ScalingPoint is one world size's measurement.
type ScalingPoint struct {
	Ranks      int
	TotalVirt  float64 // ms on the virtual clock
	LocalVirt  float64 // ms
	ReduceVirt float64 // ms
	OutputRows int
	Records    uint64 // input records processed across ranks
}

// RunScalingStudy executes the parallel query at each world size. Input
// datasets are generated in memory per rank (generation time counts as
// the local read+process phase, like the paper's file reads).
func RunScalingStudy(cfg ScalingConfig) ([]ScalingPoint, error) {
	if len(cfg.RankCounts) == 0 {
		return nil, fmt.Errorf("experiments: no rank counts")
	}
	if cfg.Query == "" {
		cfg.Query = paradis.EvaluationQuery
	}
	var points []ScalingPoint
	for _, p := range cfg.RankCounts {
		world, err := mpi.NewWorld(p)
		if err != nil {
			return nil, err
		}
		provider := func(rank int) (io.ReadCloser, error) {
			var buf bytes.Buffer
			if err := paradis.WriteRank(&buf, rank, cfg.Dataset); err != nil {
				return nil, err
			}
			return io.NopCloser(&buf), nil
		}
		res, err := pquery.Run(world, cfg.Query, pquery.Input{Stream: provider}, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("ranks=%d: %w", p, err)
		}
		points = append(points, ScalingPoint{
			Ranks:      p,
			TotalVirt:  res.Timing.TotalVirt / 1e6,
			LocalVirt:  res.Timing.LocalVirt / 1e6,
			ReduceVirt: res.Timing.ReduceVirt / 1e6,
			OutputRows: len(res.Rows),
			Records:    res.RecordsProcessed,
		})
	}
	return points, nil
}

// Figure4 runs the scaling study and formats the paper's Figure 4.
func Figure4(cfg ScalingConfig) (*Report, error) {
	points, err := RunScalingStudy(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig4", Title: "Weak scaling of the MPI-based query application (virtual clock)"}
	r.Addf("%8s %12s %12s %12s %10s %12s", "ranks", "total ms", "local ms", "reduce ms", "rows", "records")
	for _, p := range points {
		r.Addf("%8d %12.2f %12.2f %12.2f %10d %12d",
			p.Ranks, p.TotalVirt, p.LocalVirt, p.ReduceVirt, p.OutputRows, p.Records)
	}

	first, last := points[0], points[len(points)-1]
	// weak scaling: per-rank input constant → local time roughly flat
	localFlat := last.LocalVirt < first.LocalVirt*4 && first.LocalVirt < last.LocalVirt*4
	r.Check("local read+process time is roughly constant (weak scaling)",
		localFlat, "local %0.2f ms at P=%d vs %0.2f ms at P=%d",
		first.LocalVirt, first.Ranks, last.LocalVirt, last.Ranks)

	// reduction time grows with P but sub-linearly (logarithmic tree)
	grows := true
	for i := 1; i < len(points); i++ {
		if points[i].Ranks > points[i-1].Ranks && points[i].ReduceVirt < points[i-1].ReduceVirt*0.5 {
			grows = false
		}
	}
	r.Check("cross-process reduction time grows with rank count",
		grows && last.ReduceVirt > first.ReduceVirt,
		"reduce %0.2f ms → %0.2f ms", first.ReduceVirt, last.ReduceVirt)

	if len(points) >= 3 && last.Ranks > first.Ranks*4 {
		ratio := last.ReduceVirt / math.Max(points[1].ReduceVirt, 1e-9)
		linear := float64(last.Ranks) / float64(points[1].Ranks)
		r.Check("reduction scales sub-linearly (logarithmic tree)",
			ratio < linear/2,
			"reduce grew %.1fx while ranks grew %.0fx", ratio, linear)
	}

	expRows := cfg.Dataset.Groups()
	r.Check(fmt.Sprintf("query produces %d output records at every scale (paper: 85)", expRows),
		allRows(points, expRows), "rows=%d", last.OutputRows)
	return r, nil
}

func allRows(points []ScalingPoint, want int) bool {
	for _, p := range points {
		if p.OutputRows != want {
			return false
		}
	}
	return true
}
