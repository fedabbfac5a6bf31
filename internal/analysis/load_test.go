package analysis

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoadModuleBuildConstraints loads a module whose package declares the
// same function in an _amd64.go file and in a //go:build !amd64 twin. The
// loader must keep exactly the file this host's build selects, so the
// package type-checks (no "redeclared" error) and lints clean.
func TestLoadModuleBuildConstraints(t *testing.T) {
	root := filepath.Join("testdata", "src", "buildtags")
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(prog.Packages) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(prog.Packages))
	}
	want := "kern_other.go"
	if runtime.GOARCH == "amd64" {
		want = "kern_amd64.go"
	}
	var names []string
	for _, f := range prog.Packages[0].Filenames {
		names = append(names, filepath.Base(f))
	}
	if len(names) != 2 || (names[0] != want && names[1] != want) {
		t.Errorf("loaded files %v, want %s and use.go", names, want)
	}
	diags, err := LintModule(root, []string{"./..."})
	if err != nil {
		t.Fatalf("LintModule: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
