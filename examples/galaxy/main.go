// Galaxy example: the Internal Extinction of Galaxies workflow (the paper's
// Figure 8 scenario, shrunk) swept across all six techniques on the
// simulated 16-core server. It prints a runtime/process-time mini-table and
// demonstrates the paper's headline auto-scaling trade-off: similar runtime
// at visibly lower total process time.
package main

import (
	"fmt"
	"log"
	"strings"

	_ "repro/internal/dynamic"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/workflows/galaxy"
)

func main() {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	techniques := []string{"multi", "dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis", "hybrid_redis"}
	var series []metrics.Series

	for _, tech := range techniques {
		m, err := mapping.Get(tech)
		if err != nil {
			log.Fatal(err)
		}
		s := metrics.Series{Label: tech}
		for _, procs := range []int{4, 8, 16} {
			opts := mapping.Options{Processes: procs, Platform: platform.Server, Seed: 42}
			if strings.Contains(tech, "redis") {
				opts.RedisAddrs = []string{srv.Addr()}
			}
			g := galaxy.New(galaxy.Config{Galaxies: 60})
			rep, err := m.Execute(g, opts)
			if err != nil {
				log.Fatalf("%s procs=%d: %v", tech, procs, err)
			}
			s.Points = append(s.Points, rep)
		}
		series = append(series, s)
	}

	fmt.Println(metrics.RenderSeries("Internal Extinction of Galaxies (60 galaxies, server)", series))

	// Auto-scaling headline: compare the full-pool dynamic mapping with its
	// auto-scaled variant at the widest sweep point.
	var dyn, auto metrics.Report
	for _, s := range series {
		if p, ok := s.At(16); ok {
			switch s.Label {
			case "dyn_multi":
				dyn = p
			case "dyn_auto_multi":
				auto = p
			}
		}
	}
	if dyn.ProcessTime > 0 {
		fmt.Printf("auto-scaling at 16 processes: runtime ratio %.2f, process time ratio %.2f\n",
			auto.Runtime.Seconds()/dyn.Runtime.Seconds(),
			auto.ProcessTime.Seconds()/dyn.ProcessTime.Seconds())
	}
}
