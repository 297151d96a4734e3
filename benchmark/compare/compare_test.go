package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdat/benchmark/result"
)

func bound(b float64) *float64 { return &b }

var testSpec = &result.Spec{
	Workloads: []result.WorkloadID{{Name: "w"}},
	EndToEnd: []result.MetricSpec{
		{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: bound(0.10)},
		{Name: "conns_per_s", Unit: "conns/s", Better: "higher", Bound: bound(0.10)},
	},
	PerLayer: []result.MetricSpec{{Name: "mct.ms", Unit: "ms", Better: "lower"}},
}

// sets builds one result set per run: run_ms_p50 takes the given values,
// conns_per_s their inverse, so both move together.
func sets(runMs []float64, failed int) []*result.Set {
	var out []*result.Set
	for _, v := range runMs {
		out = append(out, &result.Set{Workloads: []result.Workload{{
			Name: "w", Attempted: 100, Failed: failed, FailShare: float64(failed) / 100,
			Metrics: map[string]result.Metric{
				"run_ms_p50":  {Value: v, Unit: "ms"},
				"conns_per_s": {Value: 1000 / v, Unit: "conns/s"},
				"mct.ms":      {Value: v / 2, Unit: "ms"},
			},
		}}})
	}
	return out
}

// verdicts maps "metric" to its verdict in compare's output.
func verdicts(t *testing.T, base, head []*result.Set) (map[string]string, int) {
	t.Helper()
	var buf bytes.Buffer
	n := compare(testSpec, base, head, &buf)
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "w" {
			got[f[1]] = f[len(f)-1]
		}
	}
	return got, n
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name     string
		head     []*result.Set
		want     map[string]string
		breaches int
	}{
		{"pass", sets([]float64{10.2, 10.3, 10.1, 10.25, 10.15}, 0),
			map[string]string{"run_ms_p50": "ok", "conns_per_s": "ok", "fail_share": "ok", "mct.ms": "-"}, 0},
		{"breach", sets([]float64{12.0, 12.1, 11.9, 12.05, 11.95}, 0),
			map[string]string{"run_ms_p50": "breach", "conns_per_s": "breach", "fail_share": "ok"}, 2},
		{"unresolved", sets([]float64{8, 14, 10, 16, 9}, 0),
			map[string]string{"run_ms_p50": "unresolved", "conns_per_s": "unresolved"}, 0},
		{"better", sets([]float64{7.0, 7.1, 6.9, 7.05, 6.95}, 0),
			map[string]string{"run_ms_p50": "better", "conns_per_s": "better"}, 0},
		{"failures", sets(steady, 1),
			map[string]string{"run_ms_p50": "ok", "fail_share": "breach"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := verdicts(t, sets(steady, 0), c.head)
			for k, v := range c.want {
				if got[k] != v {
					t.Errorf("%s: verdict %q, want %q", k, got[k], v)
				}
			}
			if n != c.breaches {
				t.Errorf("breaches = %d, want %d", n, c.breaches)
			}
		})
	}
}

// TestRunExitCodes drives the command on fixture directories.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", testSpec)
	for i, s := range sets([]float64{10.0, 10.1, 9.9}, 0) {
		write(filepath.Join("base", string(rune('a'+i))+".json"), s)
	}
	for i, s := range sets([]float64{13.0, 13.1, 12.9}, 0) {
		write(filepath.Join("slow", string(rune('a'+i))+".json"), s)
	}
	base, slow := filepath.Join(dir, "base"), filepath.Join(dir, "slow")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-spec", spec, base, base}, 0},
		{[]string{"-spec", spec, base, slow}, 1},
		{[]string{"-spec", spec, base}, 2},
		{[]string{"-spec", spec, base, filepath.Join(dir, "missing")}, 2},
	} {
		var out, errb bytes.Buffer
		if got := run(c.args, &out, &errb); got != c.want {
			t.Errorf("run(%v) = %d, want %d\n%s%s", c.args, got, c.want, out.String(), errb.String())
		}
	}
}
