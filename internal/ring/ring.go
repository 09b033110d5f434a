// Package ring keeps a bounded directory of .cali files: the on-disk
// retention ring that the continuous self-profiler (internal/prof) and the
// telemetry-history recorder (internal/obs/history) write into.
//
// Files are named <prefix>-<seq>[-<tag>].cali with a zero-padded,
// monotonically increasing sequence number. A ring opened over a directory
// that already holds such files adopts them, ordered by their parsed
// sequence number, and resumes numbering after the highest one, so
// retention keeps holding across restarts and a new file never reuses an
// adopted file's name. Every file is written to a temporary name in the
// same directory and renamed into place, so a process killed mid-write
// leaves no torn .cali file for the next run to adopt and serve.
package ring

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"caligo/internal/obs"
)

// tmpSuffix marks a file still being written. It keeps the file out of
// the ring's own "*.cali" adoption pattern and out of shell globs over
// the ring directory.
const tmpSuffix = ".tmp"

// Ring is a bounded, restart-safe directory of .cali files. It is safe for
// concurrent use.
type Ring struct {
	dir      string
	prefix   string
	maxFiles int
	log      *slog.Logger

	mu    sync.Mutex
	seq   int
	files []string // retained files, oldest first
}

// Open creates dir if needed, removes leftover temporary files of a
// previous run, and adopts the existing ring files of the given prefix.
// At most maxFiles files are kept once the next file is added.
func Open(dir, prefix string, maxFiles int) (*Ring, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	r := &Ring{dir: dir, prefix: prefix, maxFiles: maxFiles, log: obs.Logger("ring")}
	tmps, err := filepath.Glob(filepath.Join(dir, prefix+"-*.cali"+tmpSuffix))
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("ring: remove leftover %s: %w", tmp, err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, prefix+"-*.cali"))
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	// Glob returns names sorted, so files sharing a sequence number keep
	// name order
	for _, m := range matches {
		if _, ok := r.seqOf(m); ok {
			r.files = append(r.files, m)
		}
	}
	sort.SliceStable(r.files, func(i, j int) bool {
		a, _ := r.seqOf(r.files[i])
		b, _ := r.seqOf(r.files[j])
		return a < b
	})
	if n := len(r.files); n > 0 {
		last, _ := r.seqOf(r.files[n-1])
		r.seq = last + 1
	}
	return r, nil
}

// seqOf parses the sequence number of a ring file name
// (<prefix>-<seq>[-<tag>].cali).
func (r *Ring) seqOf(path string) (int, bool) {
	rest := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), r.prefix+"-"), ".cali")
	digits, _, _ := strings.Cut(rest, "-")
	seq, err := strconv.Atoi(digits)
	return seq, err == nil
}

// Add writes data as the ring's next file, tagged with tag when it is not
// empty, evicts the oldest files beyond the bound, and returns the new
// file's path.
func (r *Ring) Add(tag string, data []byte) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := fmt.Sprintf("%s-%06d", r.prefix, r.seq)
	if tag != "" {
		name += "-" + tag
	}
	path := filepath.Join(r.dir, name+".cali")
	if err := writeAtomic(path, data); err != nil {
		return "", fmt.Errorf("ring: write %s: %w", path, err)
	}
	r.seq++
	r.files = append(r.files, path)
	if n := len(r.files) - r.maxFiles; n > 0 {
		for _, old := range r.files[:n] {
			if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
				r.log.Warn("retention remove failed", "file", old, "err", err)
			}
		}
		r.files = append(r.files[:0], r.files[n:]...)
	}
	return path, nil
}

// writeAtomic writes data to a temporary file next to path and renames it
// over path, so a killed process never leaves path holding a partial
// write. Like the aggregate cache (internal/qcache), it does not fsync:
// the guarantee covers a killed process, not an operating-system crash.
func writeAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Files returns the retained ring files, oldest first.
func (r *Ring) Files() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.files...)
}
