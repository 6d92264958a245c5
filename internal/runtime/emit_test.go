package runtime

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestEmitIntoInteriorPEAllocsNothing pins the emit hot path: routing one
// value into a pooled PE — terminal or interior — allocates nothing once the
// closure is built. Per-edge facts such as "is the destination terminal" are
// resolved when the closure is built, not by scanning the graph's edges on
// every emission.
func TestEmitIntoInteriorPEAllocsNothing(t *testing.T) {
	g := graph.New("emitallocs")
	g.Add(func() core.PE { return core.NewSource("gen", func(*core.Context) error { return nil }) })
	g.Add(func() core.PE { return core.NewEach("work", func(*core.Context, any) error { return nil }) })
	g.Add(func() core.PE { return core.NewSink("sink", func(*core.Context, any) error { return nil }) })
	g.Pipe("gen", "work")
	g.Pipe("work", "sink")

	var outputs atomic.Int64
	rt := &router{g: g, plan: PoolPlan(g, 2), outputs: &outputs, out: func(Task) error { return nil }}
	var value any = "event"
	for _, tc := range []struct{ from, into string }{{"gen", "interior work"}, {"work", "terminal sink"}} {
		emit := rt.emitFor(tc.from)
		if n := testing.AllocsPerRun(200, func() { _ = emit(core.PortOut, value) }); n != 0 {
			t.Errorf("emit from %s into the %s allocates %.1f per call, want 0", tc.from, tc.into, n)
		}
	}
	if outputs.Load() == 0 {
		t.Error("emissions into the terminal sink counted no workflow outputs")
	}
}
