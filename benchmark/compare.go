package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's regression bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, the value in
// each result file, b's change against a and the metric's bound from
// BENCHMARK.json (read from the working directory, the repo root). It
// returns an error when b is worse than a by more than a bound, or fails a
// larger share of its events. Agreement of two sets of the same commit is
// the check passing in both orders.
func compareFiles(pathA, pathB string, out io.Writer) error {
	var spec benchmarkJSON
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	beyond := 0
	fmt.Fprintf(out, "%-12s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, w := range workloads {
		oa, ob := a.Workloads[w.name], b.Workloads[w.name]
		if oa == nil || ob == nil {
			return fmt.Errorf("workload %s is missing from a result file", w.name)
		}
		for _, m := range spec.EndToEnd {
			ma, okA := oa.Metrics[m.Name]
			mb, okB := ob.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from a result file", w.name, m.Name)
			}
			change := (mb.Value - ma.Value) / ma.Value
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(out, "%-12s %-24s %14.5f %14.5f %+8.2f%% %6.1f%%%s\n", w.name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, verdict)
		}
		fa, fb := failedShare(oa), failedShare(ob)
		verdict := ""
		if fb > fa {
			verdict = "  HIGHER"
			beyond++
		}
		fmt.Fprintf(out, "%-12s %-24s %14.6f %14.6f%s\n", w.name, "failed_share", fa, fb, verdict)
	}
	if beyond > 0 {
		return fmt.Errorf("%d comparisons are beyond their bound", beyond)
	}
	return nil
}

func failedShare(o *outcome) float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}
