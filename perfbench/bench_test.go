package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// nodeBin is the claims-node executable the tests' dist3-olap runs
// start, built once by TestMain.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	nodeBin = filepath.Join(dir, "claims-node")
	build := exec.Command("go", "build", "-o", nodeBin, "repro/cmd/claims-node")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("build claims-node: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smallOptions(t *testing.T, workload string, seconds int, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: seconds, trace: trace,
		nodeBin: nodeBin, out: filepath.Join(t.TempDir(), "trace.json"), small: true,
	}
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that every answer is right and every named metric present.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(testContext(t), smallOptions(t, name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("failed %d of %d statements: %s", rep.failed, rep.attempted, rep.firstErr)
			}
			if rep.extra["fail_ratio"] != 0 {
				t.Errorf("fail_ratio = %v", rep.extra["fail_ratio"])
			}
			for _, d := range endToEnd {
				if v, ok := rep.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v; want > 0", d.name, v, ok)
				}
			}
			if len(rep.metrics) != len(endToEnd) {
				t.Errorf("got %d end-to-end metrics, want %d", len(rep.metrics), len(endToEnd))
			}

			o := smallOptions(t, name, 2, true)
			rep, err = runWorkload(testContext(t), o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("traced run failed %d of %d statements: %s", rep.failed, rep.attempted, rep.firstErr)
			}
			for _, d := range perLayer {
				v, ok := rep.metrics[d.name]
				if !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
				// A time every workload measures is never exactly 0.
				if (d.unit == "us" || d.unit == "ns") && v == 0 {
					t.Errorf("per-layer time %s is 0", d.name)
				}
			}
			if len(rep.metrics) != len(perLayer) {
				t.Errorf("got %d per-layer metrics, want %d", len(rep.metrics), len(perLayer))
			}
			var tf traceFile
			b, err := os.ReadFile(o.out)
			if err == nil {
				err = json.Unmarshal(b, &tf)
			}
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if tf.Workload != name || len(tf.Spans) == 0 || len(tf.Metrics) < len(perLayer) {
				t.Errorf("trace file: workload %q, %d spans, %d metrics", tf.Workload, len(tf.Spans), len(tf.Metrics))
			}
		})
	}
}

// TestWrongAnswerCounted checks that answers which do not match the
// expected ones count as failures, for the per-key lookup check and for
// the reference fingerprints.
func TestWrongAnswerCounted(t *testing.T) {
	for _, name := range []string{"serve-lookup", "olap-mix", "dist3-olap"} {
		t.Run(name, func(t *testing.T) {
			o := smallOptions(t, name, 1, false)
			o.tamper = true
			rep, err := runWorkload(testContext(t), o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != rep.attempted {
				t.Fatalf("with corrupted expectations %d of %d statements failed, want all", rep.failed, rep.attempted)
			}
			if !strings.Contains(rep.firstErr, "wrong answer") {
				t.Errorf("first failure %q does not name a wrong answer", rep.firstErr)
			}
		})
	}
}

func TestFingerprintDetectsChanges(t *testing.T) {
	rows := [][]string{{"600036", "12.50"}, {"600037", "7.10"}}
	want := fingerprintStrings(rows)
	if err := want.check(fingerprintStrings([][]string{rows[1], rows[0]})); err != nil {
		t.Errorf("row order must not matter: %v", err)
	}
	for _, bad := range [][][]string{
		{{"600036", "12.50"}},
		{{"600036", "12.50"}, {"600038", "7.10"}},
		{{"600036", "12.60"}, {"600037", "7.10"}},
		{{"600036", "7.10"}, {"600037", "12.50"}},
	} {
		if want.check(fingerprintStrings(bad)) == nil {
			t.Errorf("%v matched %v", bad, rows)
		}
	}
}

// TestNoNodeOutlivesRun checks that dist3-olap stops and reaps every
// claims-node it started, after a normal run and after a run cut short
// by its context, the path an interrupt or the run deadline takes.
func TestNoNodeOutlivesRun(t *testing.T) {
	if _, err := runWorkload(testContext(t), smallOptions(t, "dist3-olap", 1, false)); err != nil {
		t.Fatal(err)
	}
	assertNoNodes(t)

	ctx, cancel := context.WithTimeout(testContext(t), 1500*time.Millisecond)
	defer cancel()
	if _, err := runWorkload(ctx, smallOptions(t, "dist3-olap", 30, false)); err == nil {
		t.Fatal("a run cut short by its context must fail")
	}
	assertNoNodes(t)
}

// assertNoNodes fails if any process running the test's claims-node
// binary is left, zombies included, or any node is still registered.
func assertNoNodes(t *testing.T) {
	t.Helper()
	liveNodes.Lock()
	n := len(liveNodes.m)
	liveNodes.Unlock()
	if n != 0 {
		t.Errorf("%d nodes still registered", n)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err == nil && strings.HasPrefix(string(b), nodeBin+"\x00") {
			t.Errorf("claims-node still running: %s", p)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
