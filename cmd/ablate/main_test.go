package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The ping-pong ablations at the default size and repetitions print
// exactly the lines results/ablations.txt holds before its BT table
// (`make results` regenerates the whole file, BT included).
func TestTransfersMatchResults(t *testing.T) {
	var got bytes.Buffer
	if err := ablateTransfers(&got, 65536, 3); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join("..", "..", "results", "ablations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(file), "== ablation: BT")
	if !ok {
		t.Fatal("results/ablations.txt has no BT section")
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
