package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenInputs are the captures the goldens pin: a clean transfer, one cut
// off inside a record, and one whose sniffer clock steps back twice, so the
// batch mode's global time pre-sort shows in its output.
var goldenInputs = []struct{ name, trace string }{
	{"clean", filepath.Join("..", "tdat", "testdata", "clean.pcap")},
	{"truncated_record", corpusTrace("truncated_record.pcap")},
	{"clock_regression", corpusTrace("clock_regression.pcap")},
}

// corpusTrace locates one capture of the adversarial corpus.
func corpusTrace(name string) string {
	return filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", name)
}

// TestGolden runs pcap2bgp -v in batch and -online mode over every golden
// input and compares what it writes — stdout, then the length and SHA-256
// of the -o archive — with testdata/<input>.<mode>.golden (rerun with
// -update to accept a change).
func TestGolden(t *testing.T) {
	for _, in := range goldenInputs {
		for _, mode := range []string{"batch", "online"} {
			t.Run(in.name+"."+mode, func(t *testing.T) {
				archive := filepath.Join(t.TempDir(), "out.mrt")
				args := []string{"-v", "-log-level", "error", "-o", archive, in.trace}
				if mode == "online" {
					args = append([]string{"-online"}, args...)
				}
				var out, errBuf bytes.Buffer
				if code := run(args, &out, &errBuf); code != 0 {
					t.Fatalf("run = %d, stderr:\n%s", code, errBuf.String())
				}
				mrtBytes, err := os.ReadFile(archive)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "mrt: %d bytes, sha256 %x\n", len(mrtBytes), sha256.Sum256(mrtBytes))
				checkGolden(t, filepath.Join("testdata", in.name+"."+mode+".golden"), out.String())
			})
		}
	}
}

// TestUnreadableCapture: a capture with no readable record exits 1 in both
// modes, prints nothing on stdout and leaves no -o file behind.
func TestUnreadableCapture(t *testing.T) {
	trace := corpusTrace("truncated_header.pcap")
	for _, mode := range [][]string{nil, {"-online"}} {
		archive := filepath.Join(t.TempDir(), "out.mrt")
		var out, errBuf bytes.Buffer
		args := append(mode, "-log-level", "error", "-o", archive, trace)
		if code := run(args, &out, &errBuf); code != 1 {
			t.Errorf("%v: exit = %d, want 1", mode, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", mode, out.String())
		}
		if _, err := os.Stat(archive); !os.IsNotExist(err) {
			t.Errorf("%v: -o file left behind (stat err %v)", mode, err)
		}
	}
}

// TestWriteErrorExits1: both modes stop at their first failed MRT write and
// exit 1 with "writing MRT", so -online never prints its summary.
func TestWriteErrorExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to write to")
	}
	for _, mode := range [][]string{nil, {"-online"}} {
		var out, errBuf bytes.Buffer
		args := append(mode, "-o", "/dev/full", goldenInputs[0].trace)
		if code := run(args, &out, &errBuf); code != 1 {
			t.Errorf("%v: exit = %d, want 1", mode, code)
		}
		if !strings.Contains(errBuf.String(), "writing MRT") {
			t.Errorf("%v: stderr %q, want a writing MRT error", mode, errBuf.String())
		}
		if strings.Contains(out.String(), "online mode:") {
			t.Errorf("%v: summary printed after a failed write:\n%s", mode, out.String())
		}
	}
}

// TestUsageExitCode: bad invocations exit 2 without touching stdout.
func TestUsageExitCode(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus", "x.pcap"}, &out, &errBuf); code != 2 {
		t.Errorf("bad-flag exit = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", out.String())
	}
}

func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to seed it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}
