package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"caligo/calql"
	"caligo/internal/apps/paradis"
	"caligo/internal/attr"
	"caligo/internal/snapshot"
)

var testShape = corpusShape{iterations: 3, kernels: 12, mpiFns: 4, initRecs: 5}

// readAll returns the bytes of every file, in order.
func readAll(t *testing.T, files []string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, err := genCorpus(filepath.Join(dir, "a"), 7, 4, testShape)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genCorpus(filepath.Join(dir, "b"), 7, 4, testShape)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genCorpus(filepath.Join(dir, "c"), 8, 4, testShape)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readAll(t, a.files), readAll(t, b.files)) {
		t.Error("one seed gave different corpus bytes")
	}
	if reflect.DeepEqual(readAll(t, a.files), readAll(t, c.files)) {
		t.Error("two seeds gave the same corpus bytes")
	}

	s1 := genScript(rand.New(rand.NewSource(3)), 11, 5)
	s2 := genScript(rand.New(rand.NewSource(3)), 11, 5)
	s3 := genScript(rand.New(rand.NewSource(4)), 11, 5)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("one seed gave different annotation scripts")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("two seeds gave the same annotation script")
	}
}

// tamper returns a copy of rows whose first row carries a changed value
// of label.
func tamper(t *testing.T, rows []snapshot.FlatRecord, label string) []snapshot.FlatRecord {
	t.Helper()
	out := make([]snapshot.FlatRecord, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	for i, e := range out[0] {
		if e.Attr.Name() == label {
			switch e.Value.Kind() {
			case attr.Uint:
				out[0][i].Value = attr.UintV(e.Value.AsUint() + 1)
			default:
				out[0][i].Value = attr.IntV(e.Value.AsInt() + 1)
			}
			return out
		}
	}
	t.Fatalf("no %s in row %v", label, rows[0])
	return nil
}

func TestOracleRejectsTamperedRow(t *testing.T) {
	c, err := genCorpus(t.TempDir(), 5, 4, testShape)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{qRegion, qSelect, qTop, qRank} {
		rs, err := calql.QueryFiles(c.tally.queryText(q), c.files)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			t.Fatalf("query %d: no rows", q)
		}
		if err := c.tally.check(q, rs.Rows); err != nil {
			t.Fatalf("query %d: untouched rows rejected: %v", q, err)
		}
		if err := c.tally.check(q, tamper(t, rs.Rows, "sum#sum#time.duration")); err == nil {
			t.Errorf("query %d: tampered duration accepted", q)
		}
		if err := c.tally.check(q, rs.Rows[1:]); err == nil {
			t.Errorf("query %d: missing row accepted", q)
		}
	}

	w, err := setupAnnotate(t.TempDir(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.round(1, nil, 0)
	if err != nil {
		t.Fatalf("annotate round: %v", err)
	}
	if res.snapshots != res.events {
		t.Errorf("%d snapshots for %d events", res.snapshots, res.events)
	}
}

func TestAnnotateOracleRejectsTamperedCount(t *testing.T) {
	w, err := setupAnnotate(t.TempDir(), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	// the oracle itself tampered: the channel's rows no longer match it
	for k := range w.want1 {
		w.want1[k]++
		break
	}
	_, err = w.round(1, nil, 0)
	var we *wrongError
	if !errors.As(err, &we) {
		t.Fatalf("round with a tampered count: got %v, want a wrong-result error", err)
	}
}

// tamperedScan sets scan up, then changes one duration in one input file
// after the oracle tallied it, so caligo's answer disagrees.
func tamperedScan(dir string, seed int64, _ int) (instance, error) {
	w, err := setupScan(dir, seed)
	if err != nil {
		return nil, err
	}
	f := w.c.files[0]
	b, err := os.ReadFile(f)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	last := lines[len(lines)-1]
	d := last[len(last)-1]
	lines[len(lines)-1] = last[:len(last)-1] + string('0'+(d-'0'+1)%10)
	return w, os.WriteFile(f, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

func TestRunExitsNonZeroOnWrongResult(t *testing.T) {
	wls := map[string]setupFunc{"scan-tampered": tamperedScan}
	stdout := os.Stdout
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	code, err := run([]string{"--workload", "scan-tampered", "--seed", "3", "--seconds", "1",
		"--workdir", t.TempDir()}, wls)
	os.Stdout = stdout
	wr.Close()
	var out bytes.Buffer
	out.ReadFrom(r)
	if code == 0 || err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("tampered run: code %d, err %v; want a non-zero exit for the oracle", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.Contains(lines[len(lines)-1], `"correct":false`) {
		t.Errorf("last line %q does not report correct=false", lines[len(lines)-1])
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	var h Hist
	for i := 1; i <= 99; i++ {
		h.Add(float64(i) * 1000)
	}
	if _, ok := h.Quantile(0.9); ok {
		t.Error("p90 of 99 samples reported with 9 beyond it")
	}
	h.Add(100000)
	v, ok := h.Quantile(0.9)
	if !ok {
		t.Fatal("p90 of 100 samples not reported")
	}
	if v < 89000 || v > 91000 {
		t.Errorf("p90 = %v, want about 90000", v)
	}
	if _, ok := h.Quantile(0.99); ok {
		t.Error("p99 of 100 samples reported")
	}
	p50, ok := h.Quantile(0.5)
	if !ok || p50 < 49900 || p50 > 50100 {
		t.Errorf("p50 = %v (%v), want about 50000", p50, ok)
	}

	var a, b Hist
	for i := 1; i <= 500; i++ {
		a.Add(float64(i))
		b.Add(float64(i + 500))
	}
	a.Merge(&b)
	if m, _ := a.Quantile(0.5); m < 499 || m > 501.5 {
		t.Errorf("median of merged histograms = %v, want about 500", m)
	}
}

func TestFailedOpsCounted(t *testing.T) {
	m := &meter{}
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		_, _ = timeOp(m, "query", func() ([]snapshot.FlatRecord, error) {
			if i%5 == 0 {
				return nil, boom
			}
			return nil, nil
		}, nil)
	}
	if m.attempted != 10 || m.failed != 2 || m.ops != 8 {
		t.Errorf("attempted %d failed %d ops %d, want 10, 2, 8", m.attempted, m.failed, m.ops)
	}
	if q := m.kind("query"); q.n != 8 || q.lat.Count() != 8 {
		t.Errorf("%d completed queries tallied, want 8", q.n)
	}

	// an annotation call that returns an error counts as failed
	w, err := setupAnnotate(t.TempDir(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &w.scripts[0]
	bad := event{kind: evEnd, attr: aKernel}
	s.batches[0] = append(s.batches[0], bad, bad)
	s.events += 2
	m = &meter{}
	res, err := w.round(1, nil, 0)
	if err := account(m, res, err); err != nil {
		t.Fatal(err)
	}
	if m.failed != 2 || m.attempted != uint64(s.events) {
		t.Errorf("failed %d of %d, want 2 of %d", m.failed, m.attempted, s.events)
	}
}

// crowded is the scan workload claiming one load goroutine per CPU and
// one more.
type crowded struct{ *scan }

func (crowded) clients() int { return runtime.NumCPU() + 1 }

func TestClientsBoundedByCPUs(t *testing.T) {
	if err := checkClients(runtime.NumCPU()); err != nil {
		t.Error(err)
	}
	if err := checkClients(runtime.NumCPU() + 1); err == nil {
		t.Error("more load goroutines than CPUs accepted")
	}
	// every workload starts no more load goroutines than it was given
	for name, setup := range workloads {
		w, err := setup(filepath.Join(t.TempDir(), name), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.clients(); n != 1 {
			t.Errorf("%s given 1 load goroutine starts %d", name, n)
		}
	}
	wls := map[string]setupFunc{"crowded": func(d string, s int64, _ int) (instance, error) {
		w, err := setupScan(d, s)
		return crowded{w}, err
	}}
	code, err := run([]string{"--workload", "crowded", "--seed", "3", "--seconds", "1",
		"--workdir", t.TempDir()}, wls)
	if code == 0 || err == nil || !strings.Contains(err.Error(), "load goroutines") {
		t.Errorf("crowded run: code %d, err %v; want a refusal of its load goroutines", code, err)
	}
}

func TestScanBypassCheck(t *testing.T) {
	c, err := genCorpus(t.TempDir(), 4, 4, testShape)
	if err != nil {
		t.Fatal(err)
	}
	text := c.tally.queryText(qRegion)
	if err := checkBypass(text, c.files, serialOpts); err != nil {
		t.Fatalf("serial scan without sidecars: %v", err)
	}
	for _, f := range c.files {
		if err := buildIndex(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkBypass(text, c.files, serialOpts); err != nil {
		t.Errorf("serial scan beside sidecars: %v", err)
	}
	if err := checkBypass(text, c.files, calql.Options{NoCache: true}); err == nil {
		t.Error("a query that loaded the sidecars passed the bypass check")
	}
	cached := calql.Options{NoIndex: true, CacheDir: filepath.Join(t.TempDir(), "cache")}
	if _, err := calql.QueryFilesOpt(text, c.files, cached); err != nil {
		t.Fatal(err)
	}
	if err := checkBypass(text, c.files, cached); err == nil {
		t.Error("a query that hit the cache passed the bypass check")
	}
}

// TestCorpusIsParaDiSShaped keeps the file workloads on the paper's
// dataset shape.
func TestCorpusIsParaDiSShaped(t *testing.T) {
	cfg := paradis.DefaultConfig()
	if got, want := len(genFile(rand.New(rand.NewSource(1)), scanShape, 7)), cfg.RecordsPerFile(); got != want {
		t.Errorf("%d records per file, want %d", got, want)
	}
}

// TestMetricsMatchBenchmarkFile keeps the printed metric names and units
// in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, spec []struct{ Name, Unit string }) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics printed, %d in BENCHMARK.json", what, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s %d: printed %s (%s), BENCHMARK.json has %s (%s)", what, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runnable", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q of BENCHMARK.json is not runnable", w.Name)
		}
	}

	// all.sh runs the same workloads, in the same order
	sh, err := os.ReadFile("all.sh")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if loop := "for w in " + strings.Join(names, " ") + "; do"; !strings.Contains(string(sh), loop) {
		t.Errorf("all.sh does not loop over %q", loop)
	}
}
