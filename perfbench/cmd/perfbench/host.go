package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"evax/internal/safeio"
)

// host is the fingerprint every result carries, so numbers from different
// machines or source trees are never compared by accident.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the git commit when the tree is a git checkout, else
	// "none"; SourceFNV identifies the source tree either way.
	Commit    string `json:"commit"`
	SourceFNV string `json:"source_fnv"`
}

func fingerprint(root string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		SourceFNV:  sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	//evaxlint:ignore droppederr read-only file; nothing to flush
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD by reading .git directly: the benchmark starts no
// processes besides its own.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceHash folds every Go source and go.mod under root, in path order,
// into one FNV-1a hash. Hidden directories (build output) are skipped.
func sourceHash(root string) string {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fold(h, []byte(rel))
		fold(h, data)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxRSSMB is the process's peak resident set size since it started or
// since the last resetPeakRSS (VmHWM in /proc/self/status, in kB).
func maxRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// resetPeakRSS restarts the peak resident set size at the current one, so
// that a traced pass's peak is its own and not the untraced pass's.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		//evaxlint:ignore droppederr the write error is the one reported
		f.Close()
		return err
	}
	return f.Close()
}

// recordedJSON holds, per seed, the campaign digest and exact counts
// recorded when the benchmark was defined. A later tree that changes them
// changed the campaign's output, not just its speed.
//
//go:embed recorded.json
var recordedJSON []byte

// exactValues are the run's values that must repeat bit for bit at one
// seed: the campaign digest and the exact counts.
type exactValues map[string]string

// checkExact compares vals against the recorded table and against the
// ledger of earlier runs at the same seed (kept under dir), adds new values
// to the ledger, and returns one line per mismatch.
func checkExact(dir string, seed int64, vals exactValues) ([]string, error) {
	var recorded map[string]exactValues
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		return nil, fmt.Errorf("recorded.json: %w", err)
	}
	key := strconv.FormatInt(seed, 10)
	path := filepath.Join(dir, "ledger-"+key+".json")
	ledger := exactValues{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &ledger); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		v := vals[name]
		if want, ok := recorded[key][name]; ok && want != v {
			bad = append(bad, fmt.Sprintf("%s = %s, recorded %s", name, v, want))
		}
		if want, ok := ledger[name]; ok && want != v {
			bad = append(bad, fmt.Sprintf("%s = %s, an earlier run at this seed gave %s", name, v, want))
		}
		if _, ok := ledger[name]; !ok {
			ledger[name] = v
		}
	}
	out, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return nil, err
	}
	return bad, safeio.WriteFile(path, out, 0o644)
}
