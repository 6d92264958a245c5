package redismap_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
)

func TestHybridAutoRegistered(t *testing.T) {
	if _, err := mapping.Get("hybrid_auto_redis"); err != nil {
		t.Fatal(err)
	}
}

func TestHybridAutoStatefulCorrectness(t *testing.T) {
	const n = 50
	var results sync.Map
	g := statefulGraph(n, &results)
	m, _ := mapping.Get("hybrid_auto_redis")
	rep, err := m.Execute(g, redisOpts(t, 8)) // 3 stateful + 5 stateless
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	results.Range(func(k, v any) bool {
		total += v.(int)
		return true
	})
	if total != n {
		t.Errorf("aggregated %d want %d", total, n)
	}
	if rep.Mapping != "hybrid_auto_redis" {
		t.Errorf("report mapping: %q", rep.Mapping)
	}
}

func TestHybridAutoRecordsTrace(t *testing.T) {
	const n = 60
	col := &collector{}
	g := graph.New("traced")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 1; i <= n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("work", func(ctx *core.Context, v any) (any, error) {
			ctx.Work(2 * time.Millisecond)
			return v, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			col.add(int64(v.(int)))
			return nil
		})
	})
	g.Pipe("gen", "work")
	g.Pipe("work", "sink")

	trace := &autoscale.Trace{}
	opts := redisOpts(t, 6)
	opts.Trace = trace
	m, _ := mapping.Get("hybrid_auto_redis")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	_, count := col.snapshot()
	if count != n {
		t.Errorf("sink saw %d values want %d", count, n)
	}
	if len(trace.Points()) == 0 {
		t.Error("hybrid_auto_redis recorded no trace points")
	}
}

func TestHybridAutoUsesCustomStrategy(t *testing.T) {
	const n = 30
	col := &collector{}
	g := pipelineGraph(n, col)
	opts := redisOpts(t, 6)
	// A strategy brings its own signal: the paper's idle-time policy reads
	// the pool workers' idle clocks, with the pinned workers outside it.
	opts.Strategy = &autoscale.IdleTimeStrategy{Threshold: 4 * time.Millisecond}
	m, _ := mapping.Get("hybrid_auto_redis")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	if sum, _ := col.snapshot(); sum != wantSquareSum(n) {
		t.Errorf("sum=%d want %d", sum, wantSquareSum(n))
	}
}
