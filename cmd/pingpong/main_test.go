package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the results/*.txt files this package checks")

// The committed results/*.txt files are what the command prints: each
// case runs in process and byte-compares stdout with its file. `make
// results` (or `go test ./cmd/pingpong -update`) rewrites them.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"fig6_pingpong.txt", nil},
		{"claims.txt", []string{"-claims"}},
		{"fig2_timelines.txt", []string{"-timeline"}},
		{"vsccinfo.txt", []string{"-info"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("pingpong %s: exit %d: %s", strings.Join(tc.args, " "), code, stderr.String())
			}
			path := filepath.Join("..", "..", "results", tc.file)
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := stdout.Bytes()
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s\n(go test ./cmd/pingpong -update rewrites it)", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: got %d lines, want %d (go test ./cmd/pingpong -update rewrites it)", path, len(gl), len(wl))
			}
		})
	}
}
