package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// corpusTrace locates one capture of the adversarial corpus.
func corpusTrace(name string) string {
	return filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", name)
}

// TestGolden runs tcpprof over a clean capture, one cut off inside a record
// and one whose sniffer clock steps back twice, and compares stdout with
// testdata/<input>.golden (rerun with -update to accept a change). The
// damaged capture is profiled up to the damage, and stderr says the
// capture was cut short; a whole capture warns of nothing.
func TestGolden(t *testing.T) {
	for _, in := range []struct {
		name, trace string
		truncated   bool
	}{
		{"clean", filepath.Join("..", "tdat", "testdata", "clean.pcap"), false},
		{"truncated_record", corpusTrace("truncated_record.pcap"), true},
		{"clock_regression", corpusTrace("clock_regression.pcap"), false},
	} {
		t.Run(in.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run([]string{in.trace}, &out, &errBuf); code != 0 {
				t.Fatalf("run = %d, stderr:\n%s", code, errBuf.String())
			}
			if warned := strings.Contains(errBuf.String(), "trace truncated"); warned != in.truncated {
				t.Errorf("truncation warned = %v, want %v; stderr:\n%s", warned, in.truncated, errBuf.String())
			}
			golden := filepath.Join("testdata", in.name+".golden")
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
		})
	}
}

// TestExitCodes: a capture with no readable record exits 1 and bad
// invocations exit 2, all without touching stdout.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-log-level", "error", corpusTrace("truncated_header.pcap")}, 1},
		{nil, 2},
		{[]string{"-bogus", "x.pcap"}, 2},
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
