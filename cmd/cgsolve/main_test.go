package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error; "" means success
		wantOut string // substring expected on stdout on success
	}{
		{
			name:    "fault-free small solve",
			args:    []string{"-gen", "poisson2d", "-n", "100", "-tol", "1e-8", "-seed", "3"},
			wantOut: "converged:         true",
		},
		{
			name:    "faulty solve with explicit intervals",
			args:    []string{"-gen", "poisson2d", "-n", "100", "-alpha", "0.0625", "-s", "2", "-seed", "4"},
			wantOut: "converged:         true",
		},
		{
			// n = 4356 > vec.BlockSize, so the blocked reductions fold more
			// than one partial.
			name:    "solve beyond one reduction block",
			args:    []string{"-gen", "poisson2d", "-n", "4300", "-seed", "5"},
			wantOut: "converged:         true",
		},
		{
			name:    "suite generator",
			args:    []string{"-gen", "suite:341", "-n", "250", "-seed", "6"},
			wantOut: "converged:         true",
		},
		{
			name:    "unprotected fault-free solve",
			args:    []string{"-gen", "poisson2d", "-n", "100", "-scheme", "unprotected", "-seed", "3"},
			wantOut: "scheme:            Unprotected",
		},
		{
			name:    "unprotected under injection",
			args:    []string{"-gen", "poisson2d", "-n", "100", "-scheme", "unprotected", "-alpha", "0.0625"},
			wantErr: "cannot run under fault injection",
		},
		{
			name:    "unknown scheme",
			args:    []string{"-scheme", "nonesuch"},
			wantErr: `unknown scheme "nonesuch"`,
		},
		{
			name:    "unknown generator",
			args:    []string{"-gen", "nonesuch"},
			wantErr: `unknown generator "nonesuch"`,
		},
		{
			name:    "bad suite id",
			args:    []string{"-gen", "suite:9999"},
			wantErr: "unknown suite matrix 9999",
		},
		{
			name:    "bad flag",
			args:    []string{"-definitely-not-a-flag"},
			wantErr: "flag provided but not defined",
		},
		{
			name:    "missing matrix file",
			args:    []string{"-matrix", "/nonexistent/a.mtx"},
			wantErr: "no such file",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) error = %v, want containing %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v) failed: %v\nstderr: %s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("run(%v) stdout missing %q:\n%s", tc.args, tc.wantOut, stdout.String())
			}
		})
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]struct{ ok bool }{
		"online": {true}, "abft-d": {true}, "ABFT-Correction": {true},
		"unprotected": {true}, "bogus": {false}, "": {false},
	} {
		_, err := parseScheme(name)
		if (err == nil) != want.ok {
			t.Errorf("parseScheme(%q) err = %v", name, err)
		}
	}
}
