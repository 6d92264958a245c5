// Quickstart: compose a small stream workflow out of PEs, then run the same
// abstract graph under three different mappings — sequential, static
// multiprocessing, and dynamic scheduling with auto-scaling — without
// touching the PE code. This is the core dispel4py promise the library
// reproduces.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"repro/internal/core"
	_ "repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
)

func main() {
	lines := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"quick thinking wins the day",
	}

	// Thread-safe word counter shared by the sink PE instances.
	var mu sync.Mutex
	counts := map[string]int{}

	buildGraph := func() *graph.Graph {
		g := graph.New("wordcount")
		g.Add(func() core.PE {
			return core.NewSource("readLines", func(ctx *core.Context) error {
				for _, line := range lines {
					if err := ctx.EmitDefault(line); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewEach("splitWords", func(ctx *core.Context, v any) error {
				for _, w := range strings.Fields(v.(string)) {
					if err := ctx.EmitDefault(w); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewSink("countWords", func(ctx *core.Context, v any) error {
				mu.Lock()
				counts[v.(string)]++
				mu.Unlock()
				return nil
			})
		})
		g.Pipe("readLines", "splitWords")
		g.Pipe("splitWords", "countWords")
		return g
	}

	for _, name := range []string{"simple", "multi", "dyn_auto_multi"} {
		mu.Lock()
		counts = map[string]int{}
		mu.Unlock()

		m, err := mapping.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := m.Execute(buildGraph(), mapping.Options{
			Processes: 4,
			Platform:  platform.Server,
			Seed:      1,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		the, fox := counts["the"], counts["fox"]
		mu.Unlock()
		fmt.Printf("%-15s runtime=%-10s tasks=%-4d words: the=%d fox=%d\n",
			name, rep.Runtime.Round(1e6), rep.Tasks, the, fox)
	}
}
