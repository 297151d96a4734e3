package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestGolden runs tracegen three ways (a paced transfer with its MRT
// archive, a fanout transfer, and a three-transfer RouteViews dataset) and
// compares stdout plus the SHA-256 of every written file with
// testdata/<name>.golden (rerun with -update to accept a change). Output
// paths print as $DIR.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"paced", []string{"-kind", "paced", "-routes", "3000", "-seed", "3", "-o", "$DIR/paced.pcap", "-mrt", "$DIR/paced.mrt"}},
		{"fanout", []string{"-kind", "fanout", "-routes", "600", "-members", "12", "-seed", "4", "-o", "$DIR/fanout.pcap", "-mrt", "$DIR/fanout.mrt"}},
		{"dataset", []string{"-dataset", "routeviews", "-n", "3", "-seed", "5", "-outdir", "$DIR/ds"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "$DIR", dir)
			}
			var out, errBuf bytes.Buffer
			if code := run(args, &out, &errBuf); code != 0 {
				t.Fatalf("run = %d, stderr:\n%s", code, errBuf.String())
			}
			got := strings.ReplaceAll(out.String(), dir, "$DIR") + "-- files --\n" + fileDigests(t, dir)
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (rerun with -update to seed it)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s", golden, got, want)
			}
		})
	}
}

// fileDigests lists "<sha256>  <path>" for every file under dir, in path
// order.
func fileDigests(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriteErrorsExit1: an output that cannot be created or written exits
// 1 and says why, in both modes. Writes fail through /dev/full, which
// takes a file's name with a symlink: the dataset's first pcap (the first
// pick of the dataset golden) and its archive.
func TestWriteErrorsExit1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	cases := [][]string{
		{"-routes", "200", "-o", filepath.Join(missing, "t.pcap")},
		{"-routes", "200", "-o", filepath.Join(t.TempDir(), "t.pcap"), "-mrt", filepath.Join(missing, "t.mrt")},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		for _, file := range []string{"transfer-000-small-window.pcap", "archive.mrt"} {
			ds := t.TempDir()
			if err := os.Symlink("/dev/full", filepath.Join(ds, file)); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, []string{"-dataset", "routeviews", "-n", "3", "-seed", "5", "-outdir", ds})
		}
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 1 {
			t.Errorf("%q: exit = %d, want 1", args, code)
		}
		if !strings.Contains(errBuf.String(), "writing output") {
			t.Errorf("%q: stderr %q names no write error", args, errBuf.String())
		}
	}
}

// TestUsageExitCode: bad flags, kinds, stacks and datasets exit 2.
func TestUsageExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-kind", "nope"},
		{"-stack", "nope"},
		{"-dataset", "nope"},
		{"-burst-loss", "1,2"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("%q: exit = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q: stdout %q, want nothing", args, out.String())
		}
	}
}
