package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// SnapshotCSV renders a Snapshot as a long-form metric CSV: one row per
// histogram (merged, per-worker, and state ops) with the exact observed
// min/max alongside the interpolated quantiles, plus one row per gauge.
// It is served by /metrics?format=csv.
func SnapshotCSV(s Snapshot) string {
	var b strings.Builder
	b.WriteString("scope,metric,unit,count,sum,mean,p50,p90,p99,min,max\n")
	hist := func(scope, metric string, h HistogramSnapshot) {
		if h.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%.1f,%d,%d,%d,%d,%d\n",
			scope, metric, h.Unit, h.Count, h.Sum, h.Mean, h.P50, h.P90, h.P99, h.Min, h.Max)
	}
	worker := func(scope string, ws WorkerSnapshot) {
		hist(scope, "pull", ws.Pull)
		hist(scope, "ack", ws.Ack)
		hist(scope, "emit_flush", ws.EmitFlush)
		hist(scope, "pull_batch", ws.PullBatch)
		hist(scope, "emit_batch", ws.EmitBatch)
	}
	worker("workers", s.Workers)
	for _, ws := range s.PerWorker {
		worker(fmt.Sprintf("w%d", ws.Worker), ws)
	}
	if s.State != nil {
		ops := make([]string, 0, len(s.State.Ops))
		for name := range s.State.Ops {
			ops = append(ops, name)
		}
		sort.Strings(ops)
		for _, name := range ops {
			hist("state", name, s.State.Ops[name])
		}
	}
	gauges := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)
	for _, name := range gauges {
		v := s.Gauges[name]
		fmt.Fprintf(&b, "gauge,%s,value,1,%d,%.1f,%d,%d,%d,%d,%d\n", name, v, float64(v), v, v, v, v, v)
	}
	return b.String()
}
