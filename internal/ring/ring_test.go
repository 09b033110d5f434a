package ring

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func touch(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("__rec=attr,id=0,name=x,type=int,prop=\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRemovesLeftoverTemp: a temp file left by a process killed
// mid-write is neither adopted nor kept.
func TestOpenRemovesLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	touch(t, filepath.Join(dir, "p-000000.cali"))
	tmp := filepath.Join(dir, "p-000001.cali.tmp")
	if err := os.WriteFile(tmp, []byte("__rec=ctx,ref="), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "p", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(dir, "p-000000.cali")}; !reflect.DeepEqual(r.Files(), want) {
		t.Errorf("Files() = %v, want %v", r.Files(), want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("leftover temp file still present (stat err %v)", err)
	}
	path, err := r.Add("", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "p-000001.cali"); path != want {
		t.Errorf("Add wrote %s, want %s", path, want)
	}
}

// TestAdoptOrdersBySequence: adopted files are ordered by their parsed
// sequence number, which name order gets wrong past six digits, and the
// next file continues after the highest one.
func TestAdoptOrdersBySequence(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"p-999999-heap.cali", "p-1000000-cpu.cali", "p-999998.cali", "p-junk.cali", "q-000005.cali"} {
		touch(t, filepath.Join(dir, name))
	}
	r, err := Open(dir, "p", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "p-999998.cali"),
		filepath.Join(dir, "p-999999-heap.cali"),
		filepath.Join(dir, "p-1000000-cpu.cali"),
	}
	if !reflect.DeepEqual(r.Files(), want) {
		t.Fatalf("Files() = %v, want %v", r.Files(), want)
	}
	path, err := r.Add("cpu", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "p-1000001-cpu.cali"); path != want {
		t.Errorf("Add wrote %s, want %s", path, want)
	}
	want = append(want[1:], path)
	if !reflect.DeepEqual(r.Files(), want) {
		t.Errorf("after Add: Files() = %v, want %v", r.Files(), want)
	}
	if _, err := os.Stat(filepath.Join(dir, "p-999998.cali")); !os.IsNotExist(err) {
		t.Errorf("oldest file not evicted (stat err %v)", err)
	}
	for _, f := range r.Files() {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("retained file missing: %v", err)
		}
	}
}

// TestConcurrentAdd: concurrent writers get distinct files and the ring
// stays bounded on disk.
func TestConcurrentAdd(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, "p", 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := r.Add("k", []byte("x")); err != nil {
					t.Error(err)
				}
				r.Files()
			}
		}()
	}
	wg.Wait()
	onDisk, err := filepath.Glob(filepath.Join(dir, "p-*"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, r.Files()) {
		t.Errorf("on disk %v, ring %v", onDisk, r.Files())
	}
	if want := filepath.Join(dir, "p-000039-k.cali"); len(onDisk) != 5 || onDisk[4] != want {
		t.Errorf("on disk %v, want 5 files ending in %s", onDisk, want)
	}
}
