package statics

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/synth"
)

// CommModel estimates per-data-unit communication cost for the profile
// measurement ("analyzing execution logs" requires a cost for shipping a
// unit between processes).
type CommModel struct {
	// Fixed is the per-message cost (queue op, syscall).
	Fixed time.Duration
	// PerByte is the serialization/transfer cost per payload byte.
	PerByte time.Duration
}

// DefaultCommModel approximates an in-host multiprocessing queue.
func DefaultCommModel() CommModel {
	return CommModel{Fixed: 50 * time.Microsecond, PerByte: 5 * time.Nanosecond}
}

// MeasureProfile executes the workflow once, sequentially, timing every
// PE's Process/Generate calls and estimating per-edge communication cost
// from serialized payload sizes. The result feeds NaiveAssignment — this is
// the "execution log analysis" step of the prior-work static optimization,
// packaged as a library call.
func MeasureProfile(g *graph.Graph, model CommModel, seed int64) (Profile, error) {
	if err := g.Validate(); err != nil {
		return Profile{}, err
	}
	prof := Profile{
		Exec: map[string]time.Duration{},
		Comm: map[string]time.Duration{},
	}
	execTotal := map[string]time.Duration{}
	execCount := map[string]int{}
	commTotal := map[string]time.Duration{}
	commCount := map[string]int{}

	pes := make(map[string]core.PE, len(g.Nodes()))
	ctxs := make(map[string]*core.Context, len(g.Nodes()))
	for _, n := range g.Nodes() {
		pes[n.Name] = n.Factory()
	}

	var route func(src, port string, value any) error
	for _, n := range g.Nodes() {
		n := n
		ctxs[n.Name] = core.NewContext(n.Name, 0, nil, synth.NewRand(seed),
			func(port string, value any) error { return route(n.Name, port, value) })
	}
	route = func(src, port string, value any) error {
		for _, e := range g.OutEdges(src) {
			if e.FromPort != port {
				continue
			}
			key := EdgeKey(e.From, e.To)
			commTotal[key] += commCost(model, value)
			commCount[key]++
			start := time.Now()
			err := pes[e.To].Process(ctxs[e.To], e.ToPort, value)
			execTotal[e.To] += time.Since(start)
			execCount[e.To]++
			if err != nil {
				return fmt.Errorf("statics: profile %s: %w", e.To, err)
			}
		}
		return nil
	}

	for _, n := range g.Sources() {
		src, ok := pes[n.Name].(core.Source)
		if !ok {
			return Profile{}, fmt.Errorf("statics: %s is not a source", n.Name)
		}
		start := time.Now()
		err := src.Generate(ctxs[n.Name])
		execTotal[n.Name] += time.Since(start)
		execCount[n.Name]++
		if err != nil {
			return Profile{}, fmt.Errorf("statics: profile source %s: %w", n.Name, err)
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		return Profile{}, err
	}
	for _, name := range order {
		if fin, ok := pes[name].(core.Finalizer); ok {
			start := time.Now()
			err := fin.Final(ctxs[name])
			execTotal[name] += time.Since(start)
			if err != nil {
				return Profile{}, fmt.Errorf("statics: profile final %s: %w", name, err)
			}
		}
	}

	for name, total := range execTotal {
		n := execCount[name]
		if n == 0 {
			n = 1
		}
		prof.Exec[name] = total / time.Duration(n)
	}
	for key, total := range commTotal {
		prof.Comm[key] = total / time.Duration(commCount[key])
	}
	return prof, nil
}

// commCost estimates shipping one value. Values the codec cannot encode
// (unregistered concrete types are fine for in-process mappings) fall back
// to the fixed cost.
func commCost(model CommModel, value any) time.Duration {
	cost := model.Fixed
	if model.PerByte > 0 {
		if payload, err := codec.Encode(codec.Task{Value: value}); err == nil {
			cost += time.Duration(len(payload)) * model.PerByte
		}
	}
	return cost
}
