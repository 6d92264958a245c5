// Package harness defines and runs the paper's evaluation: every figure and
// table of Section 5 is encoded as an Experiment (workflow × platform ×
// technique set × process sweep), executed against the simulated platforms
// and the embedded mini-Redis server, and rendered as aligned text series,
// CSV, and the paper's ratio tables.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Experiment is one evaluation panel (one subplot of a figure).
type Experiment struct {
	// ID names the experiment ("fig8-1x-std", ...).
	ID string
	// Title is the human-readable panel title.
	Title string
	// Platform is the simulated host.
	Platform platform.Platform
	// Techniques are the mapping names to sweep.
	Techniques []string
	// Processes is the process-count sweep.
	Processes []int
	// MakeGraph builds a fresh abstract workflow per run.
	MakeGraph func() *graph.Graph
	// Seed drives run determinism.
	Seed int64
}

// Runner executes experiments. It owns an embedded mini-Redis server,
// started lazily for the first Redis-backed technique.
type Runner struct {
	// Out receives progress and rendered results. Nil silences output.
	Out io.Writer
	// RedisOpDelay configures the embedded server's per-command service
	// delay (the Redis-weight ablation knob).
	RedisOpDelay time.Duration
	// Repetitions averages each point over this many runs; 0 means 1.
	Repetitions int
	// Telemetry, when non-nil, is handed to every run so the whole suite
	// accumulates into one registry (counters and histograms sum across
	// runs; gauge sources re-register per run).
	Telemetry *telemetry.Registry
	// Diag, when non-nil, is handed to every run so diagnosis accumulates
	// like the registry: flow-ledger rows and journal entries sum across the
	// suite's runs.
	Diag *diagnosis.Diag

	redis *miniredis.Server
}

// Close shuts down the embedded Redis server if one was started.
func (r *Runner) Close() {
	if r.redis != nil {
		r.redis.Close()
		r.redis = nil
	}
}

func (r *Runner) printf(format string, args ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, args...)
	}
}

func (r *Runner) redisAddrs() ([]string, error) {
	if r.redis == nil {
		srv := miniredis.NewServer(miniredis.Options{OpDelay: r.RedisOpDelay})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		r.redis = srv
	}
	return []string{r.redis.Addr()}, nil
}

// needsRedis reports whether a technique runs against Redis.
func needsRedis(technique string) bool {
	return strings.Contains(technique, "redis")
}

// skippable reports whether an execution error is a legitimate
// configuration gap (static mapping below its process minimum) rather than
// a failure. The paper's plots have exactly these holes (multi starts at 12
// on seismic and 14 on sentiment).
func skippable(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "needs at least") || strings.Contains(msg, "at least")
}

// RunExperiment sweeps all techniques over all process counts and returns
// one series per technique.
func (r *Runner) RunExperiment(e Experiment) ([]metrics.Series, error) {
	reps := r.Repetitions
	if reps <= 0 {
		reps = 1
	}
	var out []metrics.Series
	for _, tech := range e.Techniques {
		m, err := mapping.Get(tech)
		if err != nil {
			return nil, fmt.Errorf("harness %s: %w", e.ID, err)
		}
		series := metrics.Series{Label: tech}
		for _, procs := range e.Processes {
			var acc metrics.Report
			skipped := false
			for rep := 0; rep < reps; rep++ {
				opts := mapping.Options{
					Processes: procs,
					Platform:  e.Platform,
					Seed:      e.Seed + int64(rep),
					Telemetry: r.Telemetry,
					Diagnosis: r.Diag,
				}
				if needsRedis(tech) {
					addrs, err := r.redisAddrs()
					if err != nil {
						return nil, fmt.Errorf("harness %s: start redis: %w", e.ID, err)
					}
					opts.RedisAddrs = addrs
				}
				rep, err := m.Execute(e.MakeGraph(), opts)
				if err != nil {
					if skippable(err) {
						skipped = true
						break
					}
					return nil, fmt.Errorf("harness %s: %s procs=%d: %w", e.ID, tech, procs, err)
				}
				acc.Workflow = rep.Workflow
				acc.Mapping = rep.Mapping
				acc.Platform = rep.Platform
				acc.Processes = rep.Processes
				acc.Runtime += rep.Runtime
				acc.ProcessTime += rep.ProcessTime
				acc.Tasks += rep.Tasks
				acc.Outputs += rep.Outputs
				// Store-op counts are deterministic per configuration, so the
				// last repetition's counters stand for the point.
				acc.State = rep.State
			}
			if skipped {
				r.printf("  %-16s procs=%-3d skipped (below static minimum)\n", tech, procs)
				continue
			}
			acc.Runtime /= time.Duration(reps)
			acc.ProcessTime /= time.Duration(reps)
			acc.Tasks /= int64(reps)
			acc.Outputs /= int64(reps)
			series.Points = append(series.Points, acc)
			r.printf("  %s\n", acc)
		}
		series.Sort()
		out = append(out, series)
	}
	return out, nil
}

// TraceExperiment is one auto-scaler trace panel (Figure 13).
type TraceExperiment struct {
	// ID and Title label the panel.
	ID, Title string
	// Technique is dyn_auto_multi or dyn_auto_redis.
	Technique string
	// Platform is the simulated host.
	Platform platform.Platform
	// Processes is the worker budget (the max pool size).
	Processes int
	// MakeGraph builds the workflow.
	MakeGraph func() *graph.Graph
	// Seed drives determinism.
	Seed int64
	// Strategy is the auto-scaling strategy; nil means the mapping default.
	Strategy autoscale.Strategy
}

// RunTrace executes the experiment and returns the recorded trace.
func (r *Runner) RunTrace(e TraceExperiment) (*autoscale.Trace, metrics.Report, error) {
	m, err := mapping.Get(e.Technique)
	if err != nil {
		return nil, metrics.Report{}, err
	}
	trace := &autoscale.Trace{}
	opts := mapping.Options{
		Processes: e.Processes,
		Platform:  e.Platform,
		Seed:      e.Seed,
		Trace:     trace,
		Strategy:  e.Strategy,
		Telemetry: r.Telemetry,
		Diagnosis: r.Diag,
	}
	if needsRedis(e.Technique) {
		addrs, err := r.redisAddrs()
		if err != nil {
			return nil, metrics.Report{}, err
		}
		opts.RedisAddrs = addrs
	}
	rep, err := m.Execute(e.MakeGraph(), opts)
	if err != nil {
		return nil, metrics.Report{}, fmt.Errorf("harness %s: %w", e.ID, err)
	}
	return trace, rep, nil
}

// RenderTrace formats a trace as the Figure 13 data series: iteration,
// active process count, and the monitored metric.
func RenderTrace(title string, trace *autoscale.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-8s %s\n", "iteration", "active", "metric")
	pts := trace.Points()
	// Long traces are downsampled for readability; the CSV keeps all points.
	step := 1
	if len(pts) > 60 {
		step = len(pts) / 60
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Fprintf(&b, "%-10d %-8d %.1f\n", p.Iteration, p.Active, p.Metric)
	}
	fmt.Fprintf(&b, "(%d points total)\n", len(pts))
	return b.String()
}

// TraceCSV renders all trace points as CSV.
func TraceCSV(trace *autoscale.Trace) string {
	var b strings.Builder
	b.WriteString("iteration,active,metric\n")
	for _, p := range trace.Points() {
		fmt.Fprintf(&b, "%d,%d,%.3f\n", p.Iteration, p.Active, p.Metric)
	}
	return b.String()
}
