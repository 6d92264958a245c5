package multiproc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
)

func TestNameAndRegistration(t *testing.T) {
	if (Multi{}).Name() != "multi" {
		t.Error("name")
	}
	if _, err := mapping.Get("multi"); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBackpressure fills the bounded instance boxes: a slow sink
// with a fast producer must neither deadlock nor drop data.
func TestPipelineBackpressure(t *testing.T) {
	const n = 600 // > the 256-task box bound
	var mu sync.Mutex
	var got int
	g := graph.New("backpressure")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("slow", func(ctx *core.Context, v any) error {
			time.Sleep(20 * time.Microsecond)
			mu.Lock()
			got++
			mu.Unlock()
			return nil
		})
	})
	g.Pipe("gen", "slow")

	done := make(chan error, 1)
	go func() {
		_, err := (Multi{}).Execute(g, mapping.Options{
			Processes: 2,
			Platform:  platform.Platform{Name: "t", Cores: 4},
			Seed:      1,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("backpressure deadlock")
	}
	mu.Lock()
	defer mu.Unlock()
	if got != n {
		t.Fatalf("sink saw %d of %d values", got, n)
	}
}

// TestDiamondEOSTermination checks the reference-counted poison-pill
// protocol on a fan-out/fan-in topology with multi-instance middles: the
// join instance must wait for EOS from every upstream instance before
// finalizing.
func TestDiamondEOSTermination(t *testing.T) {
	var mu sync.Mutex
	var beforeFinal int
	var finalCount int

	g := graph.New("diamond")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 30; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	for _, name := range []string{"left", "right"} {
		name := name
		g.Add(func() core.PE {
			return core.NewMap(name, func(ctx *core.Context, v any) (any, error) { return v, nil })
		}).SetInstances(2)
	}
	g.Add(func() core.PE {
		return &joinPE{onData: func() {
			mu.Lock()
			beforeFinal++
			mu.Unlock()
		}, onFinal: func() {
			mu.Lock()
			finalCount++
			mu.Unlock()
		}}
	}).SetInstances(1)
	g.Pipe("gen", "left")
	g.Pipe("gen", "right")
	g.Pipe("left", "join")
	g.Pipe("right", "join")

	if _, err := (Multi{}).Execute(g, mapping.Options{
		Processes: 8,
		Platform:  platform.Platform{Name: "t", Cores: 4},
		Seed:      1,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if beforeFinal != 60 {
		t.Errorf("join saw %d values, want 60 (30 per branch)", beforeFinal)
	}
	if finalCount != 1 {
		t.Errorf("join finalized %d times, want 1", finalCount)
	}
}

// joinPE counts deliveries and finalizations.
type joinPE struct {
	core.Base
	onData  func()
	onFinal func()
}

func (p *joinPE) Name() string      { return "join" }
func (p *joinPE) InPorts() []string { return core.In() }
func (p *joinPE) Process(ctx *core.Context, port string, v any) error {
	p.onData()
	return nil
}
func (p *joinPE) Final(ctx *core.Context) error {
	p.onFinal()
	return nil
}
