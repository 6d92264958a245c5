package mapping

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/state"
	"repro/internal/synth"
)

// Simple is the sequential mapping: one instance per PE, executed in a
// single process by synchronous depth-first data propagation. It defines
// the reference semantics every parallel mapping must agree with, and it is
// the mapping the paper notes dynamic scheduling is "ineffective with"
// (there is nothing to schedule).
type Simple struct{}

func init() { Register(Simple{}) }

// Name implements Mapping.
func (Simple) Name() string { return "simple" }

// Execute implements Mapping.
func (Simple) Execute(g *graph.Graph, opts Options) (metrics.Report, error) {
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	host := platform.NewHost(opts.Platform)
	proc := host.NewProcess("simple-0")
	proc.Activate()
	defer proc.Deactivate()

	ms, err := OpenManagedState(g, opts, func() state.Backend { return state.NewMemoryBackend() })
	if err != nil {
		return metrics.Report{}, err
	}
	success := false
	defer func() { ms.Finish(g, success) }()

	var tasks, outputs atomic.Int64

	// One instance per PE.
	pes := make(map[string]core.PE, len(g.Nodes()))
	ctxs := make(map[string]*core.Context, len(g.Nodes()))
	for _, n := range g.Nodes() {
		pes[n.Name] = n.Factory()
	}

	// route delivers a value emitted by node src on port to all destinations,
	// recursively (synchronous depth-first streaming).
	var route func(src, port string, value any) error
	for _, n := range g.Nodes() {
		n := n
		ctx := core.NewContext(
			n.Name, 0, host,
			synth.NewRand(opts.Seed^int64(graph.Hash32(n.Name))),
			func(port string, value any) error { return route(n.Name, port, value) },
		)
		if sc := ms.Scope(n.Name); sc != nil {
			ctx = ctx.WithStore(sc)
		}
		ctxs[n.Name] = ctx
	}
	route = func(src, port string, value any) error {
		for _, e := range g.OutEdges(src) {
			if e.FromPort != port {
				continue
			}
			tasks.Add(1)
			if len(g.OutEdges(e.To)) == 0 {
				// Delivery into a terminal PE counts as a workflow output.
				// Emissions on unconnected ports are silently discarded,
				// matching dispel4py's behaviour for unconnected outputs.
				outputs.Add(1)
			}
			if err := pes[e.To].Process(ctxs[e.To], e.ToPort, value); err != nil {
				return fmt.Errorf("simple: PE %s: %w", e.To, err)
			}
		}
		return nil
	}

	start := time.Now()
	// Init hooks in topological order.
	order, err := g.TopoSort()
	if err != nil {
		return metrics.Report{}, err
	}
	for _, name := range order {
		if ini, ok := pes[name].(core.Initializer); ok {
			if err := ini.Init(ctxs[name]); err != nil {
				return metrics.Report{}, fmt.Errorf("simple: init %s: %w", name, err)
			}
		}
	}
	// Drive the sources.
	for _, n := range g.Sources() {
		src, ok := pes[n.Name].(core.Source)
		if !ok {
			return metrics.Report{}, fmt.Errorf("simple: %s is not a source", n.Name)
		}
		tasks.Add(1)
		if err := src.Generate(ctxs[n.Name]); err != nil {
			return metrics.Report{}, fmt.Errorf("simple: source %s: %w", n.Name, err)
		}
	}
	// Finalize in topological order so flushed aggregates flow downstream.
	for _, name := range order {
		if fin, ok := pes[name].(core.Finalizer); ok {
			if err := fin.Final(ctxs[name]); err != nil {
				return metrics.Report{}, fmt.Errorf("simple: final %s: %w", name, err)
			}
		}
	}
	runtime := time.Since(start)
	proc.Deactivate()
	success = true

	return metrics.Report{
		Workflow:    g.Name,
		Mapping:     "simple",
		Platform:    opts.Platform.Name,
		Processes:   1,
		Runtime:     runtime,
		ProcessTime: host.TotalProcessTime(),
		Tasks:       tasks.Load(),
		Outputs:     outputs.Load(),
		State:       ms.Ops(),
	}, nil
}
