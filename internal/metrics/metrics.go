// Package metrics defines the run reports and ratio tables the paper's
// evaluation section is built from: per-run (runtime, total process time)
// pairs, series over process counts, and the A/B ratio summaries of
// Tables 1–3 (best-by-runtime row, best-by-process-time row, and the
// [mean, std] of the ratios across the sweep).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// StateOps summarizes managed-state store traffic of one run: how often PEs
// hit the state layer, broken down by operation. It is the state-subsystem
// analogue of Tasks/Outputs, letting the benches compare the cost of
// field-state vs. managed-state (memory and Redis backends).
type StateOps struct {
	// Gets/Puts/Adds count single-key operations.
	Gets, Puts, Adds int64
	// Deletes and Updates are always 0: the state layer has no such ops.
	// They stay for readers of older reports and the CSV's fixed columns.
	Deletes, Updates int64
	// Snapshots/Restores count whole-store snapshot round-trips.
	Snapshots, Restores int64
}

// Total sums all counted operations.
func (s StateOps) Total() int64 {
	return s.Gets + s.Puts + s.Adds + s.Snapshots + s.Restores
}

// Add returns the element-wise sum s + o (for totalling one run's
// namespaces).
func (s StateOps) Add(o StateOps) StateOps {
	return StateOps{
		Gets: s.Gets + o.Gets, Puts: s.Puts + o.Puts, Adds: s.Adds + o.Adds,
		Snapshots: s.Snapshots + o.Snapshots, Restores: s.Restores + o.Restores,
	}
}

// String renders the non-zero counters compactly.
func (s StateOps) String() string {
	if s.Total() == 0 {
		return "state=∅"
	}
	return fmt.Sprintf("state[get=%d put=%d add=%d snap=%d restore=%d]",
		s.Gets, s.Puts, s.Adds, s.Snapshots, s.Restores)
}

// Report captures one workflow execution.
type Report struct {
	// Workflow is the workflow graph name.
	Workflow string
	// Mapping is the technique name (multi, dyn_multi, ...).
	Mapping string
	// Platform is the simulated host name.
	Platform string
	// Processes is the worker process budget of the run.
	Processes int
	// Runtime is the wall-clock execution time.
	Runtime time.Duration
	// ProcessTime is the total active process time (the efficiency metric).
	ProcessTime time.Duration
	// Tasks counts data units processed by PE instances.
	Tasks int64
	// Outputs counts values that reached sink PEs.
	Outputs int64
	// State summarizes managed-state store traffic (zero when the workflow
	// uses no managed state).
	State StateOps
}

// String renders a one-line summary.
func (r Report) String() string {
	s := fmt.Sprintf("%-10s %-16s %-7s procs=%-3d runtime=%-9s proctime=%-10s tasks=%-6d outputs=%d",
		r.Workflow, r.Mapping, r.Platform, r.Processes,
		r.Runtime.Round(time.Millisecond), r.ProcessTime.Round(time.Millisecond),
		r.Tasks, r.Outputs)
	if r.State.Total() > 0 {
		s += " " + r.State.String()
	}
	return s
}

// Series is a sweep of runs of one technique over process counts.
type Series struct {
	// Label names the technique.
	Label string
	// Points are the runs, ordered by Processes.
	Points []Report
}

// Sort orders points by process count.
func (s *Series) Sort() {
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Processes < s.Points[j].Processes })
}

// At returns the point with the given process count.
func (s *Series) At(processes int) (Report, bool) {
	for _, p := range s.Points {
		if p.Processes == processes {
			return p, true
		}
	}
	return Report{}, false
}

// RatioRow is one prioritized row of the paper's comparison tables.
type RatioRow struct {
	// PrioritizedBy is "runtime" or "process time".
	PrioritizedBy string
	// Processes is the sweep point the row was taken from.
	Processes int
	// RuntimeRatio is runtime(A)/runtime(B) at that point.
	RuntimeRatio float64
	// ProcessTimeRatio is processTime(A)/processTime(B) at that point.
	ProcessTimeRatio float64
}

// RatioTable is the paper's Table 1/2/3 cell for one platform and one A/B
// technique pair: the ratio rows prioritized by each metric plus the mean
// and standard deviation of the ratios across all shared sweep points.
type RatioTable struct {
	// Platform names the host.
	Platform string
	// A and B are the compared technique labels (A is the proposal).
	A, B string
	// Rows holds the prioritized rows (runtime-first, then process time).
	Rows []RatioRow
	// RuntimeMean/RuntimeStd summarize all runtime ratios.
	RuntimeMean, RuntimeStd float64
	// ProcessTimeMean/ProcessTimeStd summarize all process-time ratios.
	ProcessTimeMean, ProcessTimeStd float64
	// N is the number of shared sweep points.
	N int
}

// RatioPair is one A/B comparison point.
type RatioPair struct {
	// Processes is the sweep point.
	Processes int
	// Runtime and ProcessTime are the A/B ratios at that point.
	Runtime, ProcessTime float64
}

// PairsFromSeries computes the A/B ratio pairs over shared process counts.
func PairsFromSeries(a, b Series) []RatioPair {
	var pairs []RatioPair
	for _, pa := range a.Points {
		pb, ok := b.At(pa.Processes)
		if !ok || pb.Runtime <= 0 || pb.ProcessTime <= 0 {
			continue
		}
		pairs = append(pairs, RatioPair{
			Processes:   pa.Processes,
			Runtime:     pa.Runtime.Seconds() / pb.Runtime.Seconds(),
			ProcessTime: pa.ProcessTime.Seconds() / pb.ProcessTime.Seconds(),
		})
	}
	return pairs
}

// BuildRatioTable summarizes pooled ratio pairs (possibly from several
// workload panels on the same platform, as the paper's tables do) into the
// Table 1/2/3 layout.
func BuildRatioTable(platform, aLabel, bLabel string, pairs []RatioPair) (RatioTable, error) {
	if len(pairs) == 0 {
		return RatioTable{}, fmt.Errorf("metrics: no shared points between %q and %q", aLabel, bLabel)
	}
	sorted := append([]RatioPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Processes < sorted[j].Processes })

	bestRt, bestProc := sorted[0], sorted[0]
	var rts, procs []float64
	for _, p := range sorted {
		if p.Runtime < bestRt.Runtime {
			bestRt = p
		}
		if p.ProcessTime < bestProc.ProcessTime {
			bestProc = p
		}
		rts = append(rts, p.Runtime)
		procs = append(procs, p.ProcessTime)
	}
	rtMean, rtStd := MeanStd(rts)
	procMean, procStd := MeanStd(procs)
	return RatioTable{
		Platform: platform,
		A:        aLabel,
		B:        bLabel,
		Rows: []RatioRow{
			{PrioritizedBy: "runtime", Processes: bestRt.Processes, RuntimeRatio: bestRt.Runtime, ProcessTimeRatio: bestRt.ProcessTime},
			{PrioritizedBy: "process time", Processes: bestProc.Processes, RuntimeRatio: bestProc.Runtime, ProcessTimeRatio: bestProc.ProcessTime},
		},
		RuntimeMean: rtMean, RuntimeStd: rtStd,
		ProcessTimeMean: procMean, ProcessTimeStd: procStd,
		N: len(pairs),
	}, nil
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Render formats the table in the paper's layout.
func (t RatioTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s / %s   (n=%d)\n", t.Platform, t.A, t.B, t.N)
	fmt.Fprintf(&b, "  %-14s %-8s %-14s %s\n", "prioritized", "procs", "runtime ratio", "process time ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-14s %-8d %-14.2f %.2f\n", r.PrioritizedBy, r.Processes, r.RuntimeRatio, r.ProcessTimeRatio)
	}
	fmt.Fprintf(&b, "  %-14s %-8s [%.2f, %.2f]     [%.2f, %.2f]\n", "[mean, std]", "-",
		t.RuntimeMean, t.RuntimeStd, t.ProcessTimeMean, t.ProcessTimeStd)
	return b.String()
}

// RenderSeries prints aligned runtime/process-time columns for a figure:
// one row per process count, one column pair per series.
func RenderSeries(title string, series []Series) string {
	procSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			procSet[p.Processes] = true
		}
	}
	procs := make([]int, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Ints(procs)

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-7s", "procs")
	for _, s := range series {
		fmt.Fprintf(&b, " | %-22s", s.Label+" rt/pt")
	}
	b.WriteByte('\n')
	for _, pc := range procs {
		fmt.Fprintf(&b, "%-7d", pc)
		for _, s := range series {
			if r, ok := s.At(pc); ok {
				fmt.Fprintf(&b, " | %9s / %-10s",
					r.Runtime.Round(time.Millisecond), r.ProcessTime.Round(time.Millisecond))
			} else {
				fmt.Fprintf(&b, " | %-22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series as long-form CSV rows: the run columns
// (workflow,mapping,platform,processes,runtime_s,proctime_s,tasks,outputs)
// followed by the per-operation managed-state counters (all zero for
// workflows without managed state).
func CSV(series []Series) string {
	var b strings.Builder
	b.WriteString("workflow,mapping,platform,processes,runtime_s,proctime_s,tasks,outputs," +
		"state_gets,state_puts,state_deletes,state_adds,state_updates," +
		"state_snapshots,state_restores\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%s,%s,%d,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				p.Workflow, p.Mapping, p.Platform, p.Processes,
				p.Runtime.Seconds(), p.ProcessTime.Seconds(), p.Tasks, p.Outputs,
				p.State.Gets, p.State.Puts, p.State.Deletes, p.State.Adds, p.State.Updates,
				p.State.Snapshots, p.State.Restores)
		}
	}
	return b.String()
}
