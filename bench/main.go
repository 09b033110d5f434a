// Command caligo-bench is caligo's end-to-end benchmark. It drives caligo
// from outside, through its public functions, on one seeded workload per
// run, checks every answer against an oracle it tallies while generating
// the inputs, and prints the result as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
//
//	caligo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics with caligo's own tracing and
// telemetry left off. --trace 1 is the traced run: it times each layer's
// public calls with the benchmark's span recorder and prints the
// per-layer ledger instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// instance is one workload set up on its inputs.
type instance interface {
	// measure runs the untraced closed loop until the deadline.
	measure(m *meter, until time.Time) error
	// ledger runs the traced loop until the deadline and fills out with
	// per-layer metrics. It counts operations and oracle mismatches in m.
	ledger(rec *recorder, m *meter, out map[string]float64, until time.Time) error
	// pathValues fills out with the hot path's own metrics of an untraced
	// run (see pathMetrics) from its meter.
	pathValues(m *meter, out map[string]float64)
	// clients is the number of load goroutines the workload starts.
	clients() int
}

// setupFunc generates a workload's seeded inputs under dir for at most
// the given number of load goroutines.
type setupFunc func(dir string, seed int64, clients int) (instance, error)

// workloads maps each workload name to its set-up function.
var workloads = map[string]setupFunc{
	"annotate":       func(d string, s int64, c int) (instance, error) { return setupAnnotate(d, s, c) },
	"scan":           func(d string, s int64, c int) (instance, error) { return setupScan(d, s) },
	"append-requery": func(d string, s int64, c int) (instance, error) { return setupAppend(d, s, c) },
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"peak_heap_mb", "MiB"},
}

// pathMetrics are each hot path's own names for its figures. An untraced
// run prints the ones that apply to its workload on the line before the
// result; the result carries the uniform endToEnd metrics instead, which
// every workload must report.
var pathMetrics = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"event_ns_p50", "ns"},
	{"event_ns_p99", "ns"},
	{"event_batches", "count"},
	{"alloc_bytes_per_event", "B"},
	{"query_ms_p50", "ms"},
	{"query_ms_p90", "ms"},
	{"queries", "count"},
	{"records_per_s", "1/s"},
	{"alloc_kb_per_query", "KiB"},
	{"append_ms_p50", "ms"},
	{"append_ms_p90", "ms"},
	{"appends", "count"},
	{"peak_heap_mb", "MiB"},
	{"failed_ratio", "1"},
}

// perLayer are the metrics of a traced run. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"caliper.event_ns", "ns"},
	{"caliper.contention_ratio", "1"},
	{"caliper.dispatch_ns", "ns"},
	{"caliper.snapshots_per_event", "count"},
	{"caliper.flush_ms", "ms"},
	{"blackboard.update_ns", "ns"},
	{"blackboard.snapshot_ns", "ns"},
	{"snapshot.unpack_ns", "ns"},
	{"snapshot.unpack_allocs", "count"},
	{"contexttree.nodes", "count"},
	{"core.update_ns", "ns"},
	{"core.update_allocs", "count"},
	{"core.keys", "count"},
	{"calformat.write_ns_per_record", "ns"},
	{"calformat.meta_ns_per_record", "ns"},
	{"calformat.decode_ns_per_record", "ns"},
	{"calformat.decode_allocs_per_record", "count"},
	{"calformat.index_build_ms", "ms"},
	{"calformat.index_load_us", "us"},
	{"calql.parse_us", "us"},
	{"query.process_ns_per_record", "ns"},
	{"query.where_pass_ratio", "1"},
	{"query.results_ms", "ms"},
	{"query.format_ms", "ms"},
	{"query.blocks_pruned_ratio", "1"},
	{"query.files_skipped_ratio", "1"},
	{"query.index_fallbacks", "count"},
	{"query.shard_skew", "1"},
	{"query.merge_us", "us"},
	{"qcache.hit_ratio", "1"},
	{"qcache.incremental_ratio", "1"},
	{"qcache.fallbacks", "count"},
	{"pquery.local_ms", "ms"},
	{"pquery.reduce_ms", "ms"},
	{"core.encode_us", "us"},
	{"core.state_bytes", "B"},
	{"core.merge_encoded_us", "us"},
	{"bench.residual_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// A run sets its workload up at least setupReps times and for at least
// setupMin, at most setupMax times; setup_s is the median.
const (
	setupReps = 7
	setupMin  = time.Second
	setupMax  = 200
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header describes the host and build a result was measured on.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func main() {
	code, err := run(os.Args[1:], workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caligo-bench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run of one of wls and returns the exit code.
func run(args []string, wls map[string]setupFunc) (int, error) {
	fs := flag.NewFlagSet("caligo-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: annotate, scan or append-requery")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer ledger")
	workdir := fs.String("workdir", ".bench_build/work", "directory for generated inputs and spans")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	setup, ok := wls[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(dir)
	var inst instance
	var setups []float64
	begin := time.Now()
	for i := 0; i < setupReps || (i < setupMax && time.Since(begin) < setupMin); i++ {
		d := filepath.Join(dir, fmt.Sprintf("inputs-%d", i))
		runtime.GC()
		t0 := time.Now()
		w, err := setup(d, *seed, runtime.NumCPU())
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return 1, fmt.Errorf("set up %s: %w", *name, err)
		}
		if inst != nil {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("inputs-%d", i-1))); err != nil {
				return 1, err
			}
		}
		inst = w
	}
	if err := checkClients(inst.clients()); err != nil {
		return 2, err
	}
	hdr := header{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: inst.clients(),
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit(),
	}
	hb, _ := json.Marshal(map[string]header{"header": hdr})
	fmt.Println(string(hb))
	runtime.GC()

	m := &meter{}
	res := result{Metrics: make(map[string]metricValue)}
	until := time.Now().Add(time.Duration(*seconds) * time.Second)
	var vals map[string]float64
	var defs []metricDef
	var runErr error
	if *traceFlag == 0 {
		ph := startPeakHeap(time.Millisecond)
		runErr = inst.measure(m, until)
		peak := ph.Stop()
		if runErr == nil && len(m.wrong) == 0 {
			vals, runErr = endToEndValues(m, median(setups), peak)
		}
		if runErr == nil && len(m.wrong) == 0 {
			pv := map[string]float64{
				"setup_s":      vals["setup_s"],
				"peak_heap_mb": vals["peak_heap_mb"],
				"failed_ratio": ratio(float64(m.failed), float64(m.attempted)),
			}
			inst.pathValues(m, pv)
			printPathMetrics(pv)
		}
		defs = endToEnd
	} else {
		rec := newRecorder()
		vals = make(map[string]float64)
		runErr = inst.ledger(rec, m, vals, until)
		if err := writeSpans(rec, *workdir, *name, *seed); err != nil && runErr == nil {
			runErr = err
		}
		defs = perLayer
	}
	if len(m.wrong) > 0 {
		// a wrong row fails the run loudly, whatever else happened
		for _, w := range m.wrong {
			fmt.Fprintln(os.Stderr, "caligo-bench: wrong result:", w)
		}
		res.Attempted, res.Failed = m.attempted, m.failed
		if b, err := json.Marshal(res); err == nil {
			fmt.Println(string(b))
		}
		return 1, errors.New("outputs disagree with the oracle")
	}
	if runErr != nil {
		return 1, runErr
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	res.Attempted, res.Failed, res.Correct = m.attempted, m.failed, true
	if res.Attempted == 0 {
		return 1, errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	return 0, nil
}

// printPathMetrics prints the path metrics in vals, with their units, as
// one JSON line.
func printPathMetrics(vals map[string]float64) {
	out := make(map[string]metricValue)
	for _, d := range pathMetrics {
		if v, ok := vals[d.name]; ok {
			out[d.name] = metricValue{v, d.unit}
		}
	}
	b, _ := json.Marshal(map[string]map[string]metricValue{"path_metrics": out})
	fmt.Println(string(b))
}

// checkClients refuses more load goroutines than the host has CPUs.
func checkClients(n int) error {
	if n < 1 || n > runtime.NumCPU() {
		return fmt.Errorf("%d load goroutines, but the host has %d CPUs", n, runtime.NumCPU())
	}
	return nil
}

// endToEndValues turns an untraced run's meter into the end-to-end
// metrics.
func endToEndValues(m *meter, setupS float64, peak uint64) (map[string]float64, error) {
	if m.ops == 0 || m.busy <= 0 {
		return nil, errors.New("no operation completed")
	}
	p50, ok50 := m.lat.Quantile(0.5)
	p90, ok90 := m.lat.Quantile(0.9)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("%d latency samples leave fewer than %d beyond p90", m.lat.Count(), minBeyond)
	}
	return map[string]float64{
		"setup_s":            setupS,
		"ops_per_s":          float64(m.ops) / m.busy.Seconds(),
		"latency_p50_us":     p50 / 1e3,
		"latency_p90_us":     p90 / 1e3,
		"alloc_bytes_per_op": float64(m.allocs) / float64(m.ops),
		"peak_heap_mb":       float64(peak) / (1 << 20),
	}, nil
}

// writeSpans writes the traced run's spans to <workdir>/spans.
func writeSpans(rec *recorder, workdir, name string, seed int64) error {
	dir := filepath.Join(workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// it is not available).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the revision the binary was built from: the version
// control stamp when the build had one, else CALIGO_COMMIT, else
// "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("CALIGO_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
