package harness

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/seismic"
	"repro/internal/workflows/sentiment"
)

// AllTechniques is the paper's full technique set (Section 5's legend).
var AllTechniques = []string{
	"dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis", "multi", "hybrid_redis",
}

// MultiFamily is the subset evaluated on HPC ("Redis cannot be deployed on
// the HPC, [so] no mapping based on Redis [runs] on HPC").
var MultiFamily = []string{"dyn_multi", "dyn_auto_multi", "multi"}

// Scale selects the experiment size. Full reproduces the paper's sweep;
// Quick shrinks stream lengths and sweeps so the whole suite runs in
// seconds (used by tests and -short benches).
type Scale struct {
	// GalaxyX multiplies the 100-galaxy 1X workload per X step.
	GalaxyBase int
	// HeavyMax is the heavy-delay maximum.
	HeavyMax time.Duration
	// Stations, Samples size the seismic workload.
	Stations, Samples int
	// Articles sizes the sentiment corpus.
	Articles int
	// ServerProcs, HPCProcs, SentimentProcs are the process sweeps.
	ServerProcs, HPCProcs, SentimentProcs []int
	// TraceProcs is the worker budget of the Figure 13 traces.
	TraceProcsServer, TraceProcsHPC int
}

// FullScale is the paper's configuration (times scaled to milliseconds).
func FullScale() Scale {
	return Scale{
		GalaxyBase:       100,
		HeavyMax:         20 * time.Millisecond,
		Stations:         50,
		Samples:          3000,
		Articles:         120,
		ServerProcs:      []int{4, 8, 12, 16},
		HPCProcs:         []int{4, 8, 16, 32, 64},
		SentimentProcs:   []int{8, 10, 12, 14, 16},
		TraceProcsServer: 16,
		TraceProcsHPC:    64,
	}
}

// QuickScale is the seconds-scale smoke configuration.
func QuickScale() Scale {
	return Scale{
		GalaxyBase:       12,
		HeavyMax:         4 * time.Millisecond,
		Stations:         10,
		Samples:          600,
		Articles:         30,
		ServerProcs:      []int{4, 8},
		HPCProcs:         []int{4, 16},
		SentimentProcs:   []int{8, 14},
		TraceProcsServer: 8,
		TraceProcsHPC:    16,
	}
}

// galaxyGraph builds a galaxy workflow factory at x times the base stream.
func (s Scale) galaxyGraph(x int, heavy bool) func() *graph.Graph {
	return func() *graph.Graph {
		return galaxy.New(galaxy.Config{
			Galaxies: s.GalaxyBase * x,
			Heavy:    heavy,
			HeavyMax: s.HeavyMax,
		})
	}
}

func (s Scale) seismicGraph() func() *graph.Graph {
	return func() *graph.Graph {
		return seismic.New(seismic.Config{Stations: s.Stations, Samples: s.Samples})
	}
}

func (s Scale) sentimentGraph() func() *graph.Graph {
	return func() *graph.Graph {
		return sentiment.New(sentiment.Config{Articles: s.Articles})
	}
}

// Fig8 is the galaxy workload sweep on the server (Figure 8): three panels
// (1X standard, 5X standard, 1X heavy), all six techniques.
func Fig8(s Scale) []Experiment {
	return galaxyPanels("fig8", platform.Server, s.ServerProcs, AllTechniques, s)
}

// Fig9 is Figure 8's grid on the cloud platform (Figure 9).
func Fig9(s Scale) []Experiment {
	return galaxyPanels("fig9", platform.Cloud, s.ServerProcs, AllTechniques, s)
}

func galaxyPanels(id string, plat platform.Platform, procs []int, techniques []string, s Scale) []Experiment {
	return []Experiment{
		{
			ID: id + "-1x-std", Title: "Internal Extinction, 1X standard workload (" + plat.Name + ")",
			Platform: plat, Techniques: techniques, Processes: procs,
			MakeGraph: s.galaxyGraph(1, false), Seed: 101,
		},
		{
			ID: id + "-5x-std", Title: "Internal Extinction, 5X standard workload (" + plat.Name + ")",
			Platform: plat, Techniques: techniques, Processes: procs,
			MakeGraph: s.galaxyGraph(5, false), Seed: 102,
		},
		{
			ID: id + "-1x-heavy", Title: "Internal Extinction, 1X heavy workload (" + plat.Name + ")",
			Platform: plat, Techniques: techniques, Processes: procs,
			MakeGraph: s.galaxyGraph(1, true), Seed: 103,
		},
	}
}

// Fig10 is the galaxy sweep on HPC (Figure 10): 5X/10X standard and 5X
// heavy, multi family only, up to 64 processes.
func Fig10(s Scale) []Experiment {
	return []Experiment{
		{
			ID: "fig10-5x-std", Title: "Internal Extinction, 5X standard workload (hpc)",
			Platform: platform.HPC, Techniques: MultiFamily, Processes: s.HPCProcs,
			MakeGraph: s.galaxyGraph(5, false), Seed: 104,
		},
		{
			ID: "fig10-10x-std", Title: "Internal Extinction, 10X standard workload (hpc)",
			Platform: platform.HPC, Techniques: MultiFamily, Processes: s.HPCProcs,
			MakeGraph: s.galaxyGraph(10, false), Seed: 105,
		},
		{
			ID: "fig10-5x-heavy", Title: "Internal Extinction, 5X heavy workload (hpc)",
			Platform: platform.HPC, Techniques: MultiFamily, Processes: s.HPCProcs,
			MakeGraph: s.galaxyGraph(5, true), Seed: 106,
		},
	}
}

// Fig11 is the seismic evaluation (Figure 11): server, cloud (all six
// techniques; multi appears only at ≥ 12 processes because the workflow has
// 9 PEs) and HPC (multi family).
func Fig11(s Scale) []Experiment {
	return []Experiment{
		{
			ID: "fig11a", Title: "Seismic Cross-Correlation (server)",
			Platform: platform.Server, Techniques: AllTechniques, Processes: s.ServerProcs,
			MakeGraph: s.seismicGraph(), Seed: 111,
		},
		{
			ID: "fig11b", Title: "Seismic Cross-Correlation (cloud)",
			Platform: platform.Cloud, Techniques: AllTechniques, Processes: s.ServerProcs,
			MakeGraph: s.seismicGraph(), Seed: 112,
		},
		{
			ID: "fig11c", Title: "Seismic Cross-Correlation (hpc)",
			Platform: platform.HPC, Techniques: MultiFamily, Processes: s.HPCProcs,
			MakeGraph: s.seismicGraph(), Seed: 113,
		},
	}
}

// Fig12 is the stateful sentiment evaluation (Figure 12): hybrid_redis vs
// multi on server and cloud. multi appears only at ≥ 14 processes.
func Fig12(s Scale) []Experiment {
	techniques := []string{"multi", "hybrid_redis"}
	return []Experiment{
		{
			ID: "fig12a", Title: "Sentiment Analyses for News Articles (server)",
			Platform: platform.Server, Techniques: techniques, Processes: s.SentimentProcs,
			MakeGraph: s.sentimentGraph(), Seed: 121,
		},
		{
			ID: "fig12b", Title: "Sentiment Analyses for News Articles (cloud)",
			Platform: platform.Cloud, Techniques: techniques, Processes: s.SentimentProcs,
			MakeGraph: s.sentimentGraph(), Seed: 122,
		},
	}
}

// Fig13 is the auto-scaler analysis (Figure 13): active size vs monitored
// metric over iterations, six panels. The dyn_auto_multi panels run the
// default strategy, whose metric is the outstanding tasks (queued plus in
// service) the pool is sized to, where the paper plots the queue size. The
// dyn_auto_redis panels (b, e) keep the paper's idle-time policy, with the
// threshold at four default poll timeouts.
func Fig13(s Scale) []TraceExperiment {
	paperIdle := &autoscale.IdleTimeStrategy{Threshold: 8 * time.Millisecond}
	return []TraceExperiment{
		{
			ID: "fig13a", Title: "Galaxy on server, dyn_auto_multi (active vs outstanding tasks)",
			Technique: "dyn_auto_multi", Platform: platform.Server, Processes: s.TraceProcsServer,
			MakeGraph: s.galaxyGraph(1, false), Seed: 131,
		},
		{
			ID: "fig13b", Title: "Galaxy on server, dyn_auto_redis (active vs avg idle time)",
			Technique: "dyn_auto_redis", Platform: platform.Server, Processes: s.TraceProcsServer,
			MakeGraph: s.galaxyGraph(1, false), Seed: 132, Strategy: paperIdle,
		},
		{
			ID: "fig13c", Title: "Galaxy on HPC, dyn_auto_multi (active vs outstanding tasks)",
			Technique: "dyn_auto_multi", Platform: platform.HPC, Processes: s.TraceProcsHPC,
			MakeGraph: s.galaxyGraph(5, false), Seed: 133,
		},
		{
			ID: "fig13d", Title: "Seismic on server, dyn_auto_multi (active vs outstanding tasks)",
			Technique: "dyn_auto_multi", Platform: platform.Server, Processes: s.TraceProcsServer,
			MakeGraph: s.seismicGraph(), Seed: 134,
		},
		{
			ID: "fig13e", Title: "Seismic on server, dyn_auto_redis (active vs avg idle time)",
			Technique: "dyn_auto_redis", Platform: platform.Server, Processes: s.TraceProcsServer,
			MakeGraph: s.seismicGraph(), Seed: 135, Strategy: paperIdle,
		},
		{
			ID: "fig13f", Title: "Seismic on HPC, dyn_auto_multi (active vs outstanding tasks)",
			Technique: "dyn_auto_multi", Platform: platform.HPC, Processes: s.TraceProcsHPC,
			MakeGraph: s.seismicGraph(), Seed: 136,
		},
	}
}

// TablePair is one A/B comparison of the ratio tables.
type TablePair struct{ A, B string }

// Table1Pairs are the galaxy comparisons (Table 1).
var Table1Pairs = []TablePair{
	{A: "dyn_auto_multi", B: "dyn_multi"},
	{A: "dyn_auto_redis", B: "dyn_redis"},
}

// Table3Pairs are the sentiment comparisons (Table 3).
var Table3Pairs = []TablePair{{A: "hybrid_redis", B: "multi"}}

// BuildTables pools the panels of one platform and produces the ratio
// tables for the requested pairs. Panels whose technique set lacks a pair
// member contribute nothing for that pair.
func BuildTables(platformName string, pairs []TablePair, panels [][]metrics.Series) []metrics.RatioTable {
	var out []metrics.RatioTable
	for _, pair := range pairs {
		var pooled []metrics.RatioPair
		for _, panel := range panels {
			var a, b *metrics.Series
			for i := range panel {
				switch panel[i].Label {
				case pair.A:
					a = &panel[i]
				case pair.B:
					b = &panel[i]
				}
			}
			if a == nil || b == nil {
				continue
			}
			pooled = append(pooled, metrics.PairsFromSeries(*a, *b)...)
		}
		table, err := metrics.BuildRatioTable(platformName, pair.A, pair.B, pooled)
		if err != nil {
			continue
		}
		out = append(out, table)
	}
	return out
}
