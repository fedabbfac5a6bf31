package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"evax/internal/dataset"
)

// TestRunFlagContract pins evaxload's exit codes: 0 for -h (usage on
// stderr), 2 for a flag that does not parse (including the retired report
// modes) or a missing -record, and 0 for a recorded corpus that reads back
// whole.
func TestRunFlagContract(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"help", []string{"-h"}, 0, "Usage of evaxload"},
		{"unknown flag", []string{"-record", "c.bin", "-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"retired -chaos", []string{"-chaos", "6"}, 2, "flag provided but not defined: -chaos"},
		{"retired -benchjson", []string{"-benchjson", "out.json"}, 2, "flag provided but not defined: -benchjson"},
		{"missing record", nil, 2, "-record is required"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.message) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), c.message)
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout without recording: %q", stdout.String())
			}
		})
	}

	t.Run("record", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "corpus.bin")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-record", path, "-seeds", "1"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
		}
		got, err := dataset.ReadCorpusFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var wrote int
		if _, err := fmt.Sscanf(stdout.String(), "evaxload: recorded %d samples", &wrote); err != nil {
			t.Fatalf("stdout %q: %v", stdout.String(), err)
		}
		if wrote == 0 || len(got) != wrote {
			t.Fatalf("read back %d rows, recorded %d", len(got), wrote)
		}
	})
}
