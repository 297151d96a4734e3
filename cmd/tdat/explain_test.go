package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// renderExplain runs the CLI on the committed clean trace with -explain and
// the given concurrency/observability knobs, returning stdout.
func renderExplain(t *testing.T, jsonMode bool, workers string, withObs bool) string {
	t.Helper()
	trace := filepath.Join("testdata", "clean.pcap")
	args := []string{"-explain", "-workers", workers, "-log-level", "error"}
	if jsonMode {
		args = append(args, "-json")
	}
	if withObs {
		// -metrics-json enables the Obs layer without touching stdout, so the
		// obs-on/obs-off comparison is byte-for-byte.
		args = append(args, "-metrics-json", filepath.Join(t.TempDir(), "m.json"))
	}
	args = append(args, trace)
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, errBuf.String())
	}
	return out.String()
}

// TestGoldenExplain pins the -explain text report against a golden file and
// asserts the evidence contract: byte-identical output at every worker
// count, with the Obs layer on or off.
func TestGoldenExplain(t *testing.T) {
	golden := filepath.Join("testdata", "clean.explain.golden")
	got := renderExplain(t, false, "1", false)

	for _, workers := range []string{"2", "8"} {
		if alt := renderExplain(t, false, workers, false); alt != got {
			t.Errorf("explain output differs at workers=%s", workers)
		}
	}
	if alt := renderExplain(t, false, "4", true); alt != got {
		t.Error("explain output differs with obs enabled")
	}

	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/tdat -run TestGoldenExplain -update` to seed it)", err)
	}
	if got != string(want) {
		t.Errorf("explain report differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s",
			golden, got, want)
	}
}

// TestGoldenExplainJSON pins the -json -explain output the same way.
func TestGoldenExplainJSON(t *testing.T) {
	golden := filepath.Join("testdata", "clean.explain.json.golden")
	got := renderExplain(t, true, "1", false)

	for _, workers := range []string{"2", "8"} {
		if alt := renderExplain(t, true, workers, false); alt != got {
			t.Errorf("explain JSON differs at workers=%s", workers)
		}
	}

	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/tdat -run TestGoldenExplainJSON -update` to seed it)", err)
	}
	if got != string(want) {
		t.Errorf("explain JSON differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s",
			golden, got, want)
	}
}

// TestTraceJSONSchema runs -trace-json on the clean trace and checks the
// catapult contract: the file parses, every event has name/ph/ts/pid/tid,
// and both layers are present — pipeline spans (pid 1) and at least one
// per-connection transfer timeline (pid ≥ 100).
func TestTraceJSONSchema(t *testing.T) {
	trace := filepath.Join("testdata", "clean.pcap")
	out := filepath.Join(t.TempDir(), "run.trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-trace-json", out, "-log-level", "error", trace}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	pipelineSpans, timelineEvents := 0, 0
	for i, ev := range f.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		pid, _ := ev["pid"].(float64)
		if ev["ph"] == "M" {
			continue
		}
		if pid == 1 {
			pipelineSpans++
		}
		if pid >= 100 {
			timelineEvents++
		}
	}
	if pipelineSpans == 0 {
		t.Error("no pipeline spans (pid 1) in trace")
	}
	if timelineEvents == 0 {
		t.Error("no per-connection timeline events (pid ≥ 100) in trace")
	}
}

// httpGet fetches url, returning body and status ("" and 0 on transport
// error so pollers can retry).
func httpGet(url string) (string, int) {
	resp, err := http.Get(url)
	if err != nil {
		return "", 0
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode
}

// launchWithMetrics starts run in the background with -metrics-addr :0 and
// returns the bound address plus the exit-code channel.
func launchWithMetrics(t *testing.T, extra ...string) (string, chan int) {
	t.Helper()
	trace := filepath.Join("testdata", "clean.pcap")
	addrCh := make(chan string, 1)
	metricsAddrHook = func(a string) { addrCh <- a }
	t.Cleanup(func() { metricsAddrHook = nil })
	args := append([]string{"-metrics-addr", "127.0.0.1:0", "-metrics-hold", "2s",
		"-log-level", "error"}, extra...)
	args = append(args, trace)
	done := make(chan int, 1)
	go func() {
		var stdout, stderr bytes.Buffer
		done <- run(args, &stdout, &stderr)
	}()
	select {
	case addr := <-addrCh:
		return addr, done
	case <-time.After(10 * time.Second):
		t.Fatal("metrics listener never came up")
		return "", done
	}
}

// TestDebugExplainEndpoint scrapes /debug/explain after a -explain run:
// 503 while analysis runs is tolerated, then the JSON report must appear.
func TestDebugExplainEndpoint(t *testing.T) {
	addr, done := launchWithMetrics(t, "-explain")
	url := "http://" + addr + "/debug/explain"
	deadline := time.Now().Add(5 * time.Second)
	var body string
	var status int
	for time.Now().Before(deadline) {
		body, status = httpGet(url)
		if status == 200 {
			break
		}
		if status != 0 && status != http.StatusServiceUnavailable {
			t.Fatalf("/debug/explain status %d, body %q", status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != 200 {
		t.Fatalf("/debug/explain never became ready (last status %d)", status)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("explain endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if _, ok := rep["transfers"]; !ok {
		t.Errorf("explain JSON missing transfers: %s", body)
	}
	if code := <-done; code != 0 {
		t.Errorf("run exit %d", code)
	}
}

// TestDebugExplainDisabled: without -explain the endpoint answers 404.
func TestDebugExplainDisabled(t *testing.T) {
	addr, done := launchWithMetrics(t)
	body, status := httpGet("http://" + addr + "/debug/explain")
	if status != http.StatusNotFound {
		t.Errorf("/debug/explain without -explain: status %d, body %q", status, body)
	}
	if code := <-done; code != 0 {
		t.Errorf("run exit %d", code)
	}
}
