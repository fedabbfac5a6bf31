package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlagContract pins evaxfleet's exit codes for arguments it handles
// before loading anything: 0 for -h (usage on stderr), 2 for a flag that
// does not parse, 1 with a message for a value it rejects.
func TestRunFlagContract(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"help", []string{"-h"}, 0, "Usage of evaxfleet"},
		{"unknown flag", []string{"-bundle", "patch.json", "-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"missing bundle", nil, 1, "-bundle is required"},
		{"unknown backend", []string{"-bundle", "patch.json", "-backend", "gpu"}, 1, `unknown -backend "gpu"`},
		{"zero shards", []string{"-bundle", "patch.json", "-shards", "0"}, 1, "-shards must be positive, got 0"},
		{"negative shards", []string{"-bundle", "patch.json", "-shards", "-3"}, 1, "-shards must be positive, got -3"},
		{"non-numeric shards", []string{"-bundle", "patch.json", "-shards", "four"}, 2, `invalid value "four" for flag -shards`},
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
				t.Fatalf("wrote to stdout before loading anything: %q", stdout.String())
			}
		})
	}
}
