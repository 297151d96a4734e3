package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"tdat/benchmark/result"
	"tdat/internal/core"
	"tdat/internal/obs"
)

// tinyWorkloads returns every workload shrunk to a few small sessions, so
// the whole benchmark runs in seconds.
func tinyWorkloads(t *testing.T) []Workload {
	t.Helper()
	var ws []Workload
	for _, name := range workloadNames {
		w, err := workloadFor(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		w.Sessions = w.Sessions[:min(len(w.Sessions), 5)]
		for i := range w.Sessions {
			w.Sessions[i].Routes = max(w.Sessions[i].Routes/100, 200)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestSmoke runs every tiny workload through both phases and checks that
// every metric BENCHMARK.json declares is printed for every workload, and
// that every output check, the traced cross-check among them, passes.
func TestSmoke(t *testing.T) {
	spec, err := result.LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := options{window: 300 * time.Millisecond, e2e: true, traced: true, export: true}
	set, events, err := measureAll(tinyWorkloads(t), o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads measured, BENCHMARK.json lists %d", len(set.Workloads), len(spec.Workloads))
	}
	for i, w := range set.Workloads {
		if w.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.Name, spec.Workloads[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d analyses failed", w.Name, w.Correct, w.Failed, w.Attempted)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			got, ok := w.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s %s: got %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
			if !strings.Contains(out.String(), "\n"+w.Name+" "+m.Name+" ") {
				t.Errorf("%s %s not printed", w.Name, m.Name)
			}
		}
		for _, name := range []string{"setup_s", "run_ms_p50", "run_ms_p90", "conns_per_s", "allocs_per_conn", "alloc_kb_per_conn", "retained_mb"} {
			if w.Metrics[name].Value <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.Name, name, w.Metrics[name].Value)
			}
		}
	}
	var sum summary
	if err := printSummary(&out, set); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Correct {
		t.Errorf("last line %q: %v", lines[len(lines)-1], err)
	}
	checkTrace(t, events)
}

// checkTrace requires the exported spans to carry the trace_event fields
// and every per-connection span to nest inside its pass span.
func checkTrace(t *testing.T, events []obs.TraceEvent) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	type lane struct {
		pid, tid int64
		run      int
	}
	passes := map[lane]obs.TraceEvent{}
	var conns []obs.TraceEvent
	for i, raw := range file.TraceEvents {
		ev := events[i]
		if ev.Ph != "X" {
			continue
		}
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := raw[k]; !ok {
				t.Fatalf("event %v lacks %q", raw, k)
			}
		}
		if _, ok := ev.Args["conn"]; ok {
			conns = append(conns, ev)
		} else {
			passes[lane{ev.Pid, ev.Tid, ev.Args["run"].(int)}] = ev
		}
	}
	if len(conns) == 0 || len(passes) == 0 {
		t.Fatalf("trace holds %d pass and %d connection spans", len(passes), len(conns))
	}
	for _, c := range conns {
		p, ok := passes[lane{c.Pid, c.Tid, c.Args["run"].(int)}]
		if !ok || c.Ts < p.Ts || c.Ts+c.Dur > p.Ts+p.Dur {
			t.Fatalf("span %+v is not inside its pass %+v", c, p)
		}
	}
}

// TestDigestsAcrossWorkers requires byte-identical reports at one and two
// workers on every workload.
func TestDigestsAcrossWorkers(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		in, err := buildInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		var digests [2][][32]byte
		for i, workers := range []int{1, 2} {
			rep, err := w.analyze(w.newAnalyzer(workers), in)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range rep.Transfers {
				d, err := digestOf(tr)
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = append(digests[i], d)
			}
		}
		if !slices.Equal(digests[0], digests[1]) || len(digests[0]) != len(w.Sessions) {
			t.Errorf("%s: reports differ between one and two workers", w.Name)
		}
	}
}

// TestCheckCatchesWrongOutput proves the fail-share gate can fail: a
// transfer end moved off the reference, one the simulator recorded
// elsewhere, a rendering that changed, and a transfer that went missing
// each count as a failed analysis.
func TestCheckCatchesWrongOutput(t *testing.T) {
	b, err := setup(tinyWorkloads(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	a := b.w.newAnalyzer(1)
	for _, c := range []struct {
		name    string
		perturb func(*core.Report, *Inputs)
		want    int
	}{
		{"unchanged", func(*core.Report, *Inputs) {}, 0},
		{"end moved", func(r *core.Report, _ *Inputs) { r.Transfers[1].Transfer.End += 2 * endTolerance }, 1},
		{"truth moved", func(_ *core.Report, in *Inputs) { in.TrueEnd[2] -= 2 * endTolerance }, 1},
		{"rendering changed", func(r *core.Report, _ *Inputs) { r.Transfers[3].Messages++ }, 1},
		{"transfer missing", func(r *core.Report, _ *Inputs) { r.Transfers = r.Transfers[1:] }, 1},
	} {
		rep, err := b.w.analyze(a, b.in)
		if err != nil {
			t.Fatal(err)
		}
		in := *b.in
		in.TrueEnd = append([]core.Micros(nil), b.in.TrueEnd...)
		c.perturb(rep, &in)
		attempted, failed, err := check(&in, b.ref, rep, true)
		if err != nil {
			t.Fatal(err)
		}
		if attempted != len(b.w.Sessions) || failed != c.want {
			t.Errorf("%s: %d of %d failed, want %d", c.name, failed, attempted, c.want)
		}
	}
}

// TestCrossCheckCatchesMismatch proves the traced run stops when a layer's
// output differs from the end-to-end report.
func TestCrossCheckCatchesMismatch(t *testing.T) {
	b, err := setup(tinyWorkloads(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	b.ref.fps[0].Window.End++
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	var checked tally
	if _, _, err := b.traced(0, false, cal, 1, &checked); err == nil {
		t.Fatal("traced run accepted a window that differs from the reference")
	}
}
