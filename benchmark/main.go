// Command benchmark measures the T-DAT analyzer end to end on generated
// capture workloads, checks every output against a reference analysis and
// the simulator's ground truth, and, in a separate traced run, times each
// pipeline layer by calling its public functions.
//
//	go run . [-workload all|NAME] [-seed 42] [-seconds 15] [-trace 0|1]
//	         [-json set.json] [-trace-out trace.json]
//
// It prints one "workload metric value unit" line per metric and a JSON
// summary as its last line; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"tdat/benchmark/result"
	"tdat/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options selects what a benchmark invocation measures.
type options struct {
	// window is the timed phase's length; warm-up takes window/5 before
	// it and the traced run at least window/3 after it.
	window      time.Duration
	e2e, traced bool
	// export keeps the traced run's spans for -trace-out.
	export bool
}

// e2eOrder is the print order of the end-to-end metrics.
var e2eOrder = []string{
	"setup_s", "run_ms_p50", "run_ms_p90", "conns_per_s",
	"allocs_per_conn", "alloc_kb_per_conn", "retained_mb",
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of gate-mixed, quagga-mrt, paper-scale, lossy-pool")
	seed := fs.Int64("seed", 42, "input seed; the same seed builds the same captures")
	seconds := fs.Int("seconds", 15, "length of each workload's timed window, in seconds")
	phase := fs.String("trace", "", `"0" reports the end-to-end metrics only, "1" the traced per-layer metrics only; empty reports both`)
	jsonOut := fs.String("json", "", "write the result set to this file")
	traceOut := fs.String("trace-out", "", "write the traced run as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*phase != "" && *phase != "0" && *phase != "1") {
		fs.Usage()
		return 2
	}
	o := options{
		window: time.Duration(*seconds) * time.Second,
		e2e:    *phase != "1",
		traced: *phase != "0",
		export: *traceOut != "",
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	var ws []Workload
	for _, n := range names {
		w, err := workloadFor(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = append(ws, w)
	}

	set, events, err := measureAll(ws, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	set.Seed, set.Seconds = *seed, *seconds
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, set); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, events); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := printSummary(stdout, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, w := range set.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

// measureAll measures each workload between two host calibrations,
// printing its metric lines as soon as it is done.
func measureAll(ws []Workload, o options, stdout io.Writer) (*result.Set, []obs.TraceEvent, error) {
	set := &result.Set{Go: runtime.Version(), NProc: runtime.NumCPU()}
	var events []obs.TraceEvent
	cal, err := newCalibrator()
	if err != nil {
		return nil, nil, err
	}
	defer cal.close()
	cal.snapshot() // the first snapshot pays for start-up; only later ones compare
	for i, w := range ws {
		before := cal.snapshot()
		res, evs, err := measure(w, o, cal, before, int64(i)+1)
		if err != nil {
			return nil, nil, err
		}
		after := cal.snapshot()
		set.HostCalMs = append(set.HostCalMs, before, after)
		if o.traced {
			res.Metrics["host.cal_ms"] = result.Metric{Value: (before + after) / 2, Unit: "ms"}
		}
		events = append(events, evs...)
		set.Workloads = append(set.Workloads, res)
		printWorkload(stdout, res, o)
	}
	set.HostDrift = result.Drifted(set.HostCalMs)
	if set.HostDrift {
		fmt.Fprintf(stdout, "# host_drift: host calibration moved more than %.0f%% within this set: %v ms\n",
			result.DriftLimit*100, set.HostCalMs)
	}
	return set, events, nil
}

// measure sets the workload up, then runs the timed phase and the traced
// run that o selects. Every analysis either makes is checked.
// calMs is the calibration snapshot taken just before.
func measure(w Workload, o options, cal *calibrator, calMs float64, pid int64) (result.Workload, []obs.TraceEvent, error) {
	b, err := setup(w)
	if err != nil {
		return result.Workload{}, nil, err
	}
	res := result.Workload{Name: w.Name, Metrics: map[string]result.Metric{}}
	var t tally
	if o.e2e {
		r, err := b.timed(o.window, cal, &t)
		if err != nil {
			return result.Workload{}, nil, err
		}
		res.Samples = len(r.samplesMs)
		var m map[string]result.Metric
		m, res.Wall = b.e2eMetrics(r, calMs)
		for k, v := range m {
			res.Metrics[k] = v
		}
	}
	var events []obs.TraceEvent
	if o.traced {
		m, evs, err := b.traced(o.window/3, o.export, cal, pid, &t)
		if err != nil {
			return result.Workload{}, nil, err
		}
		for k, v := range m {
			res.Metrics[k] = v
		}
		events = evs
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	if t.attempted > 0 {
		res.FailShare = float64(t.failed) / float64(t.attempted)
	}
	res.Correct = b.deterministic && t.failed == 0
	return res, events, nil
}

// printWorkload prints one "workload metric value unit" line per metric.
func printWorkload(w io.Writer, res result.Workload, o options) {
	if o.e2e {
		fmt.Fprintf(w, "# %s: %d timed runs in %v after %v warm-up\n", res.Name, res.Samples, o.window, o.window/5)
	}
	fmt.Fprintf(w, "# %s: %d of %d connection analyses failed\n", res.Name, res.Failed, res.Attempted)
	var names []string
	if o.e2e {
		names = append(names, e2eOrder...)
	}
	var layers []string
	for k := range res.Metrics {
		if !slices.Contains(e2eOrder, k) {
			layers = append(layers, k)
		}
	}
	sort.Strings(layers)
	for _, k := range append(names, layers...) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%s %s %v %s\n", res.Name, k, m.Value, m.Unit)
	}
	for _, k := range e2eOrder {
		if m, ok := res.Wall[k]; ok {
			fmt.Fprintf(w, "# %s %s %v %s unscaled\n", res.Name, k, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s fail_share %v fraction\n", res.Name, res.FailShare)
}

// summary is the last line of output: the outcome of every check and
// every metric, keyed by name — or by workload/name when several
// workloads ran.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]result.Metric `json:"metrics"`
}

func printSummary(w io.Writer, set *result.Set) error {
	s := summary{Correct: true, Metrics: map[string]result.Metric{}}
	for _, wl := range set.Workloads {
		s.Correct = s.Correct && wl.Correct
		s.Attempted += wl.Attempted
		s.Failed += wl.Failed
		for k, v := range wl.Metrics {
			if len(set.Workloads) > 1 {
				k = wl.Name + "/" + k
			}
			s.Metrics[k] = v
		}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, set *result.Set) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeTrace(path string, events []obs.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
