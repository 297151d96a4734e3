package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

// cleanTrace is the one-connection capture the tdat goldens also read.
var cleanTrace = filepath.Join("..", "tdat", "testdata", "clean.pcap")

// TestGolden plots the clean capture with the default flags and compares
// stdout with testdata/clean.golden (rerun with -update to accept a
// change).
func TestGolden(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{cleanTrace}, &out, &errBuf); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errBuf.String())
	}
	golden := filepath.Join("testdata", "clean.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to seed it)", err)
	}
	if out.String() != string(want) {
		t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s", golden, out.String(), want)
	}
}

// TestExitCodes: a connection index the capture does not have exits 1, and
// bad invocations exit 2, all without touching stdout.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-log-level", "error", "-conn", "5", cleanTrace}, 1},
		{nil, 2},
		{[]string{"-bogus", cleanTrace}, 2},
	} {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.want {
			t.Errorf("%q: exit = %d, want %d", tc.args, code, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%q: stdout %q, want nothing", tc.args, out.String())
		}
	}
}
