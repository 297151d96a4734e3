// Command compare judges two sets of benchmark runs against the bounds in
// BENCHMARK.json. Each side is a directory of result files written by the
// benchmark's -json flag, or a single such file:
//
//	go run ./compare [-spec ../BENCHMARK.json] BASE HEAD
//
// For every workload and metric it prints each side's median and quartiles
// across runs, the relative change, and a verdict: ok, better, breach, or
// unresolved when the runs spread wider than the bound. fail_share has an
// absolute bound of zero. It exits 1 on any breach and 2 on a usage or
// read error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tdat/benchmark/result"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark's metric declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] BASE HEAD")
		return 2
	}
	spec, err := result.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var sides [2][]*result.Set
	for i, p := range fs.Args() {
		if sides[i], err = readSets(p); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		for _, s := range sides[i] {
			if s.HostDrift {
				fmt.Fprintf(stdout, "warning: a set in %s (seed %d) is marked host_drift: %v ms\n", p, s.Seed, s.HostCalMs)
			}
		}
	}
	if compare(spec, sides[0], sides[1], stdout) > 0 {
		return 1
	}
	return 0
}

// readSets reads one result file, or every .json file in a directory.
func readSets(path string) ([]*result.Set, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var sets []*result.Set
	for _, f := range files {
		s, err := result.ReadSet(f)
		if err != nil {
			return nil, err
		}
		sets = append(sets, s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return sets, nil
}

// Verdicts.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictBreach     = "breach"
	verdictUnresolved = "unresolved"
)

// values collects one metric of one workload from every set of a side.
func values(sets []*result.Set, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		for _, w := range s.Workloads {
			if w.Name != workload {
				continue
			}
			if metric == "fail_share" {
				out = append(out, w.FailShare)
			} else if m, ok := w.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// judge gives the verdict for one end-to-end metric. worse is the head
// median's relative worsening over the base median; spread is the wider
// side's interquartile range relative to its median. A worsening beyond
// the bound is a breach, unless the runs spread wider than the bound,
// which leaves it unresolved — as is any change then, unless every head
// run beats every base run.
func judge(base, head []float64, better string, bound float64) (worse float64, verdict string) {
	bm, hm := result.Median(base), result.Median(head)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if bm != 0 {
		worse = sign * (hm - bm) / bm
	}
	var spread float64
	for _, v := range [][]float64{base, head} {
		q1, q3 := result.Quartiles(v)
		if m := result.Median(v); m != 0 {
			spread = max(spread, (q3-q1)/m)
		}
	}
	switch {
	case spread > bound && allBetter(base, head, sign):
		return worse, verdictBetter
	case spread > bound:
		return worse, verdictUnresolved
	case worse > bound:
		return worse, verdictBreach
	case worse < -bound:
		return worse, verdictBetter
	}
	return worse, verdictOK
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, sign float64) bool {
	for _, b := range base {
		for _, h := range head {
			if sign*(h-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints one row per workload and metric and returns the number
// of breaches. Per-layer metrics have no bound and get no verdict.
func compare(spec *result.Spec, base, head []*result.Set, w io.Writer) int {
	fmt.Fprintf(w, "%d base runs, %d head runs\n", len(base), len(head))
	fmt.Fprintf(w, "%-12s %-22s %28s %28s %9s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	breaches := 0
	row := func(workload, metric, verdict string, b, h []float64, change float64) {
		fmt.Fprintf(w, "%-12s %-22s %28s %28s %+8.2f%%  %s\n", workload, metric, summarize(b), summarize(h), change*100, verdict)
		if verdict == verdictBreach {
			breaches++
		}
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, h := values(base, wl.Name, m.Name), values(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			worse, verdict := judge(b, h, m.Better, bound)
			row(wl.Name, m.Name, verdict, b, h, worse)
		}
		if b, h := values(base, wl.Name, "fail_share"), values(head, wl.Name, "fail_share"); len(b) > 0 && len(h) > 0 {
			// Absolute bound zero: any rise in the failed share breaches.
			d := result.Median(h) - result.Median(b)
			verdict := verdictOK
			if d > 0 {
				verdict = verdictBreach
			}
			row(wl.Name, "fail_share", verdict, b, h, d)
		}
		for _, m := range spec.PerLayer {
			b, h := values(base, wl.Name, m.Name), values(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			change := 0.0
			if bm := result.Median(b); bm != 0 {
				change = (result.Median(h) - bm) / bm
			}
			row(wl.Name, m.Name, "-", b, h, change)
		}
	}
	fmt.Fprintf(w, "%d breaches\n", breaches)
	return breaches
}

func summarize(v []float64) string {
	q1, q3 := result.Quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", result.Median(v), q1, q3)
}
