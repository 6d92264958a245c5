// Seismic example: phase 1 of the Seismic Cross-Correlation workflow under
// dyn_auto_multi with the auto-scaler trace enabled (the paper's Figure 13
// analysis; the plotted metric is the outstanding tasks, queued plus in
// service, that the pool is sized to), followed by the stateful phase 2 (cross-correlation under
// groupings) on the hybrid Redis mapping.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/autoscale"
	_ "repro/internal/dynamic"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/workflows/seismic"
)

func main() {
	outDir, err := os.MkdirTemp("", "seismic-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(outDir)

	// Phase 1: stateless pipeline with auto-scaling and trace recording.
	trace := &autoscale.Trace{}
	g := seismic.New(seismic.Config{Stations: 30, Samples: 1500, OutDir: outDir})
	m, err := mapping.Get("dyn_auto_multi")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := m.Execute(g, mapping.Options{
		Processes: 12,
		Platform:  platform.Server,
		Seed:      3,
		Trace:     trace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	files, _ := os.ReadDir(outDir)
	fmt.Printf("phase 1 wrote %d trace files to disk\n", len(files))

	pts := trace.Points()
	fmt.Printf("auto-scaler made %d observations; sample (iteration, active, outstanding tasks):\n", len(pts))
	step := 1
	if len(pts) > 8 {
		step = len(pts) / 8
	}
	for i := 0; i < len(pts); i += step {
		fmt.Printf("  %4d  active=%-3d outstanding=%.0f\n", pts[i].Iteration, pts[i].Active, pts[i].Metric)
	}

	// Phase 2: the grouped, stateful cross-correlation on hybrid_redis.
	srv, err := miniredis.StartTestServer()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	g2 := seismic.NewPhase2(seismic.Config{Stations: 30, Samples: 800}, 3, func(top []seismic.PairPayload) {
		fmt.Println("phase 2 best-correlated station pairs:")
		for i, p := range top {
			fmt.Printf("  %d. %s × %s  peak=%.3f\n", i+1, p.A, p.B, p.Peak)
		}
	})
	hm, err := mapping.Get("hybrid_redis")
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := hm.Execute(g2, mapping.Options{
		Processes:  8,
		Platform:   platform.Server,
		Seed:       3,
		RedisAddrs: []string{srv.Addr()},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep2)
}
