package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkMetrics asserts every declared metric is present, finite and carries
// its unit.
func checkMetrics(t *testing.T, where string, o *outcome, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := o.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", where, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v is not finite", where, d.name, m.Value)
		case m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", where, d.name, m.Unit, d.unit)
		}
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", where, len(o.Metrics), len(defs))
	}
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", where, o.Correct, o.Attempted, o.Failed)
	}
}

// TestWorkloadsSmoke runs both passes of all four workloads at 1/100 size.
func TestWorkloadsSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		size := w.size.shrunk(100)
		o, err := w.runUntraced(3, size)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" untraced", o, endToEnd)
		for _, d := range endToEnd {
			if o.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, o.Metrics[d.name].Value)
			}
		}

		o, err = w.runTraced(3, size, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", o, perLayer)
		var tf traceFile
		if err := readJSON(filepath.Join(out, "trace-"+w.name+".json"), &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Batch.Spans) == 0 || len(tf.Paced.Spans) == 0 {
			t.Errorf("%s: trace file has %d batch and %d paced spans", w.name, len(tf.Batch.Spans), len(tf.Paced.Spans))
		}

		// The layers separate as the README's interaction table predicts.
		ops, cmds := o.Metrics["state.ops_per_event"].Value, o.Metrics["miniredis.commands_per_event"].Value
		switch w.name {
		case "relay":
			if ops != 0 || cmds == 0 {
				t.Errorf("relay: state ops/event = %v (want 0), commands/event = %v (want > 0)", ops, cmds)
			}
		case "session", "enrich":
			if ops < 1 {
				t.Errorf("%s: state ops/event = %v, want >= 1", w.name, ops)
			}
		case "galaxy_auto":
			if ops != 0 || cmds != 0 {
				t.Errorf("galaxy_auto: state ops/event = %v, commands/event = %v, want 0", ops, cmds)
			}
		}
	}
}

// TestOracleTrips makes the benchmark's own PEs misbehave on one event and
// checks that each workload's oracle notices.
func TestOracleTrips(t *testing.T) {
	cases := []struct {
		workload string
		fault    fault
	}{
		{"relay", fault{dropSeq: 17, corruptSeq: -1}},
		{"session", fault{dropSeq: -1, corruptSeq: 17}},
		{"enrich", fault{dropSeq: -1, corruptSeq: 17}},
	}
	for _, c := range cases {
		w := workloadByName(c.workload)
		clean, err := w.execute(runSpec{n: 500, seed: 5, fault: noFault})
		if err != nil {
			t.Fatal(err)
		}
		if clean.failed != 0 {
			t.Errorf("%s: clean run failed %d events", c.workload, clean.failed)
		}
		bad, err := w.execute(runSpec{n: 500, seed: 5, fault: c.fault})
		if err != nil {
			t.Fatal(err)
		}
		if bad.failed == 0 {
			t.Errorf("%s: oracle did not trip on %+v", c.workload, c.fault)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, spec.go says %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, spec.go %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := doc.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, spec.go says %+v lower", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, spec.go says %+v", i, m, d)
		}
	}
}

// TestCompare checks that -compare passes on equal files and fails on a
// metric beyond its bound and on a higher failed share.
func TestCompare(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64, failed int) string {
		rf := resultFile{Workloads: map[string]*outcome{}}
		for _, w := range workloads {
			o := &outcome{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				o.Metrics[d.name] = metric{Value: 2 * scale, Unit: d.unit}
			}
			rf.Workloads[w.name] = o
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow, lossy := write("a.json", 1, 0), write("b.json", 1.5, 0), write("c.json", 1, 1)
	t.Chdir(dir)
	var out bytes.Buffer
	if err := compareFiles(base, base, &out); err != nil {
		t.Errorf("equal files: %v", err)
	}
	if !strings.Contains(out.String(), "batch_runtime_s") {
		t.Errorf("comparison does not list batch_runtime_s:\n%s", out.String())
	}
	if err := compareFiles(base, slow, &out); err == nil {
		t.Error("50% slower file passed")
	}
	if err := compareFiles(slow, base, &out); err != nil {
		t.Errorf("faster file failed: %v", err)
	}
	if err := compareFiles(base, lossy, &out); err == nil {
		t.Error("file with a higher failed share passed")
	}
}
