package calql

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caligo/caliper"
)

// writeDataset runs a small instrumented workload and records its profile
// to a .cali file.
func writeDataset(t *testing.T, path string, rank int) {
	t.Helper()
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,timer,aggregate,recorder",
		"aggregate.key":     "kernel,mpi.rank",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": path,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	th.Set("mpi.rank", rank)
	for i := 0; i < 20; i++ {
		th.Begin("kernel", []string{"advec", "calc-dt"}[i%2])
		th.End("kernel")
	}
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryFiles(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for r := 0; r < 3; r++ {
		p := filepath.Join(dir, "rank"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		files = append(files, p)
	}
	rs, err := QueryFiles("AGGREGATE sum(aggregate.count) GROUP BY kernel", files)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, row := range rs.Rows {
		k, _ := row.GetByName("kernel")
		c, _ := row.GetByName("sum#aggregate.count")
		counts[k.String()] = c.AsInt()
	}
	// per file: 10 advec ends + 10 calc-dt ends attributed to the kernels
	if counts["advec"] != 30 || counts["calc-dt"] != 30 {
		t.Errorf("counts = %v, want advec=30 calc-dt=30", counts)
	}
}

func TestQueryFilesParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for r := 0; r < 8; r++ {
		p := filepath.Join(dir, "r"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		files = append(files, p)
	}
	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel"
	serial, err := QueryFiles(q, files)
	if err != nil {
		t.Fatal(err)
	}
	par, err := QueryFilesParallelOpt(q, files, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("rows: serial %d, parallel %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].String() != par.Rows[i].String() {
			t.Errorf("row %d differs:\n serial %s\n parallel %s",
				i, serial.Rows[i], par.Rows[i])
		}
	}
	if par.Timing.TotalVirt <= 0 {
		t.Error("parallel timing missing")
	}
}

func TestQueryFilesParallelDefaults(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.cali")
	writeDataset(t, p, 0)
	res, err := QueryFilesParallelOpt("AGGREGATE count GROUP BY kernel", []string{p}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
}

func TestQueryChannel(t *testing.T) {
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "kernel",
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	for i := 0; i < 6; i++ {
		th.Begin("kernel", "k")
		th.End("kernel")
	}
	rs, err := QueryChannel("SELECT kernel, aggregate.count AS count AGGREGATE count WHERE kernel GROUP BY kernel FORMAT csv", ch)
	if err != nil {
		t.Fatal(err)
	}
	out := rs.String()
	if !strings.Contains(out, "kernel,count") {
		t.Errorf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "k,") {
		t.Errorf("kernel row missing:\n%s", out)
	}
}

func TestQueryFilesErrors(t *testing.T) {
	if _, err := QueryFiles("FROB", nil); err == nil {
		t.Error("bad query should error")
	}
	if _, err := QueryFiles("AGGREGATE count", []string{"/nonexistent/file.cali"}); err == nil {
		t.Error("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.cali")
	os.WriteFile(bad, []byte("__rec=ctx,ref=1\n"), 0o644)
	if _, err := QueryFiles("AGGREGATE count", []string{bad}); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestResultsetWriteTable(t *testing.T) {
	ch, _ := caliper.NewChannel(caliper.Config{
		"services":      "event,aggregate",
		"aggregate.key": "kernel",
		"aggregate.ops": "count",
	})
	th := ch.Thread()
	th.Begin("kernel", "z")
	th.End("kernel")
	rs, err := QueryChannel("AGGREGATE count WHERE kernel GROUP BY kernel", ch)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rs.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "z") {
		t.Errorf("table output:\n%s", sb.String())
	}
}
