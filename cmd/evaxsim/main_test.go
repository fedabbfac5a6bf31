package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlagContract pins evaxsim's exit codes and output streams: 0 for -h
// (usage on stderr), -list and a finished run (report on stdout), 2 for a
// flag that does not parse, 1 with a message for an unknown program or
// policy.
func TestRunFlagContract(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // "" means nothing may be written there
		stderr string
	}{
		{name: "help", args: []string{"-h"}, code: 0, stderr: "Usage of evaxsim"},
		{name: "unknown flag", args: []string{"-nosuch"}, code: 2, stderr: "flag provided but not defined: -nosuch"},
		{name: "non-numeric max", args: []string{"-max", "lots"}, code: 2, stderr: `invalid value "lots" for flag -max`},
		{name: "unknown program", args: []string{"-prog", "nosuch"}, code: 1, stderr: `unknown program "nosuch" (try -list)`},
		{name: "bad policy", args: []string{"-policy", "fence-everything"}, code: 1, stderr: `unknown policy "fence-everything"`},
		{name: "list", args: []string{"-list"}, code: 0, stdout: "attacks:\n  "},
		{name: "run", args: []string{"-prog", "spectre-pht", "-max", "2000", "-counters", "3"}, code: 0, stdout: "top 3 counters:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), c.stderr)
			}
			if c.stdout == "" {
				if stdout.Len() != 0 {
					t.Fatalf("wrote to stdout: %q", stdout.String())
				}
			} else if !strings.Contains(stdout.String(), c.stdout) {
				t.Fatalf("stdout %q lacks %q", stdout.String(), c.stdout)
			}
			if c.code == 0 && c.stderr == "" && stderr.Len() != 0 {
				t.Fatalf("wrote to stderr on success: %q", stderr.String())
			}
		})
	}
}
