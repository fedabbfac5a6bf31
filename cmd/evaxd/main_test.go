package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlagContract pins evaxd's exit codes for arguments it handles
// before loading anything: 0 for -h (usage on stderr), 2 for a flag that
// does not parse (including the retired -linger), 1 with a message for a
// value it rejects.
func TestRunFlagContract(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"help", []string{"-h"}, 0, "Usage of evaxd"},
		{"unknown flag", []string{"-bundle", "patch.json", "-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"retired -linger", []string{"-bundle", "patch.json", "-linger", "2ms"}, 2, "flag provided but not defined: -linger"},
		{"unknown backend", []string{"-bundle", "patch.json", "-backend", "gpu"}, 1, `unknown -backend "gpu"`},
		{"missing bundle", nil, 1, "-bundle is required"},
		{"zero agreement", []string{"-bundle", "patch.json", "-agreement", "0"}, 1, "-agreement must be in (0, 1], got 0"},
		{"agreement above one", []string{"-bundle", "patch.json", "-agreement", "1.5"}, 1, "-agreement must be in (0, 1], got 1.5"},
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
