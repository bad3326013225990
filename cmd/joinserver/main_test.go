package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUsageErrors checks that every invocation that cannot serve
// exits 2 with a message on stderr and nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no arguments", nil, "joinserver: nothing to do (pass -listen)"},
		{"unknown design", []string{"-listen", ":0", "-design", "bogus"}, `join: unknown table design "bogus"`},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.wantErr) {
				t.Fatalf("stderr does not contain %q:\n%s", tc.wantErr, errb.String())
			}
			if out.Len() != 0 {
				t.Fatalf("stdout not empty:\n%s", out.String())
			}
		})
	}
}
