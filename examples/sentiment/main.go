// Sentiment example: the stateful Sentiment Analyses for News Articles
// workflow (the paper's Figure 12 scenario), rewritten on the managed
// keyed-state subsystem (internal/state). The per-state totals and the
// top-3 ranking live in engine-managed stores instead of PE fields, so the
// same abstract graph — group-by and global groupings included — runs under
// the static multi baseline, the hybrid Redis mapping, *and* plain dynamic
// scheduling (dyn_auto_redis), which rejects the field-state version. The
// run reports include the state-store traffic of each mapping.
package main

import (
	"fmt"
	"log"
	"sync"

	_ "repro/internal/dynamic"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/workflows/sentiment"
)

func main() {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	run := func(mappingName string, procs int) (top []sentiment.StateScore, runtime float64) {
		var mu sync.Mutex
		g := sentiment.New(sentiment.Config{
			Articles:     100,
			ManagedState: true,
			OnTop3: func(s []sentiment.StateScore) {
				mu.Lock()
				top = append([]sentiment.StateScore(nil), s...)
				mu.Unlock()
			},
		})
		m, err := mapping.Get(mappingName)
		if err != nil {
			log.Fatal(err)
		}
		opts := mapping.Options{Processes: procs, Platform: platform.Server, Seed: 7, RedisAddrs: []string{srv.Addr()}}
		rep, err := m.Execute(g, opts)
		if err != nil {
			log.Fatalf("%s: %v", mappingName, err)
		}
		fmt.Println(rep)
		return top, rep.Runtime.Seconds()
	}

	fmt.Printf("multi needs at least %d processes for this workflow; the Redis mappings run from %d\n",
		sentiment.MinMultiProcesses, 7+1)

	multiTop, multiRt := run("multi", sentiment.MinMultiProcesses)
	hybridTop, hybridRt := run("hybrid_redis", sentiment.MinMultiProcesses)
	// Managed state is what makes this run legal: with field state the
	// dynamic mappings reject stateful workflows outright.
	dynTop, _ := run("dyn_auto_redis", 8)

	show := func(label string, top []sentiment.StateScore) {
		fmt.Printf("top 3 happiest states (%s):\n", label)
		for i, s := range top {
			fmt.Printf("  %d. %-15s %.2f\n", i+1, s.State, s.Score)
		}
	}
	show("multi", multiTop)
	show("hybrid_redis", hybridTop)
	show("dyn_auto_redis", dynTop)
	fmt.Printf("\nhybrid_redis/multi runtime ratio: %.2f\n", hybridRt/multiRt)
	fmt.Println("(both runs use managed state here, so the ratio is not directly comparable to the")
	fmt.Println(" paper's field-state 0.32 best-case; see BenchmarkAblationHybridVsMulti for that)")
}
