// Command d4prun executes one of the paper's workflows under a chosen
// mapping, printing the run report — the workflow-developer's entry point.
//
// Usage:
//
//	d4prun -workflow galaxy -mapping dyn_auto_multi -processes 12
//	d4prun -workflow sentiment -mapping hybrid_redis -processes 10
//	d4prun -workflow seismic -mapping multi -processes 12 -platform cloud
//	d4prun -list
//
// Redis-backed mappings start an embedded mini-Redis automatically unless
// -redis addr points at an external server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/diagnosis"
	_ "repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/telemetry"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/seismic"
	"repro/internal/workflows/sentiment"
)

func main() {
	var (
		workflowName = flag.String("workflow", "galaxy", "workflow: galaxy, seismic, sentiment")
		mappingName  = flag.String("mapping", "dyn_multi", "mapping name (see -list)")
		processes    = flag.Int("processes", 8, "worker process budget")
		platformName = flag.String("platform", "server", "platform: server, cloud, hpc")
		seed         = flag.Int64("seed", 1, "run seed")
		scaleX       = flag.Int("x", 1, "galaxy workload multiplier (1X = 100 galaxies)")
		heavy        = flag.Bool("heavy", false, "galaxy heavy workload (beta(2,5) delays)")
		stations     = flag.Int("stations", 50, "seismic station count")
		articles     = flag.Int("articles", 120, "sentiment article count")
		managed      = flag.Bool("managed", false, "sentiment: declare managed state (required for the dynamic Redis mappings)")
		redisAddr    = flag.String("redis", "", "external miniredisd address(es), comma-separated in shard ring order (empty = embedded servers)")
		shards       = flag.Int("shards", 0, "embedded Redis shard count for the Redis mappings (0/1 = single server; ignored with -redis)")
		dot          = flag.Bool("dot", false, "print the abstract workflow in Graphviz dot format and exit")
		list         = flag.Bool("list", false, "list available mappings and exit")
		telAddr      = flag.String("telemetry-addr", "", "serve live telemetry on this address (/metrics, /flights, /diagnosis, /journal, /debug/pprof); empty disables")
		telEvery     = flag.Duration("telemetry-every", 0, "flight-recorder snapshot period (0 disables)")
		telSample    = flag.Int("telemetry-sample", 0, "trace one task path per N emissions (0 = default 64, negative disables tracing)")
		telHold      = flag.Duration("telemetry-hold", 0, "keep serving telemetry this long after the run finishes (so scrapers can read the final snapshot)")
		journalRing  = flag.Int("journal-ring", diagnosis.DefaultJournalRing, "run-event journal capacity (entries kept; oldest overwritten)")
	)
	flag.Parse()

	if *list {
		fmt.Println("mappings:", strings.Join(mapping.Names(), ", "))
		fmt.Println("workflows: galaxy, seismic, sentiment")
		return
	}
	tel := telemetryConfig{Addr: *telAddr, Every: *telEvery, SampleEvery: *telSample, Hold: *telHold, JournalRing: *journalRing}
	if err := run(*workflowName, *mappingName, *processes, *platformName, *seed,
		*scaleX, *heavy, *stations, *articles, *managed, *redisAddr, *shards, *dot, tel); err != nil {
		fmt.Fprintln(os.Stderr, "d4prun:", err)
		os.Exit(1)
	}
}

// telemetryConfig bundles the -telemetry-* flags.
type telemetryConfig struct {
	Addr        string
	Every       time.Duration
	SampleEvery int
	Hold        time.Duration
	JournalRing int
}

func (tc telemetryConfig) enabled() bool {
	return tc.Addr != "" || tc.Every > 0 || tc.SampleEvery != 0 || tc.Hold > 0
}

func run(workflowName, mappingName string, processes int, platformName string, seed int64,
	scaleX int, heavy bool, stations, articles int, managed bool, redisAddr string, shards int, dot bool,
	tel telemetryConfig) error {

	plat, err := platform.ByName(platformName)
	if err != nil {
		return err
	}
	m, err := mapping.Get(mappingName)
	if err != nil {
		return err
	}

	var g *graph.Graph
	switch workflowName {
	case "galaxy":
		g = galaxy.New(galaxy.Scaled(scaleX, heavy))
	case "seismic":
		g = seismic.New(seismic.Config{Stations: stations})
	case "sentiment":
		var shown bool
		g = sentiment.New(sentiment.Config{Articles: articles, ManagedState: managed, OnTop3: func(top []sentiment.StateScore) {
			if shown {
				return
			}
			shown = true
			fmt.Println("top 3 happiest states:")
			for i, s := range top {
				fmt.Printf("  %d. %-15s %.2f\n", i+1, s.State, s.Score)
			}
		}})
	default:
		return fmt.Errorf("unknown workflow %q (want galaxy, seismic or sentiment)", workflowName)
	}

	if dot {
		fmt.Print(g.DOT())
		return nil
	}

	opts := mapping.Options{Processes: processes, Platform: plat, Seed: seed}
	if redisAddr != "" {
		// A comma-separated -redis list is the external form of a shard ring;
		// a single address keeps the classic one-server data plane.
		opts.RedisAddrs = strings.Split(redisAddr, ",")
	} else if strings.Contains(mappingName, "redis") {
		n := shards
		if n <= 0 {
			n = 1
		}
		addrs := make([]string, n)
		for i := range addrs {
			srv, err := miniredis.StartTestServer()
			if err != nil {
				return fmt.Errorf("start embedded redis: %w", err)
			}
			defer srv.Close()
			addrs[i] = srv.Addr()
		}
		opts.RedisAddrs = addrs
		fmt.Printf("embedded mini-redis shards at %s\n", strings.Join(addrs, ", "))
	}

	var reg *telemetry.Registry
	var diag *diagnosis.Diag
	if tel.enabled() {
		reg = telemetry.New(telemetry.Config{TraceSampleEvery: tel.SampleEvery})
		diag = diagnosis.New(diagnosis.Config{JournalRing: tel.JournalRing})
		opts.Telemetry = reg
		opts.Diagnosis = diag
		opts.TelemetryEvery = tel.Every
		if tel.Addr != "" {
			srv, err := telemetry.Serve(tel.Addr, reg)
			if err != nil {
				return fmt.Errorf("telemetry endpoint: %w", err)
			}
			defer srv.Close()
			diag.Attach(srv, reg)
			fmt.Printf("telemetry at http://%s/metrics (diagnosis at /diagnosis, journal at /journal)\n", srv.Addr())
		}
	}

	rep, err := m.Execute(g, opts)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("telemetry: pulls=%d p99=%v acks=%d tasks=%d fused=%d idle_polls=%d traces=%d\n",
			snap.Workers.Pull.Count, time.Duration(snap.Workers.Pull.P99),
			snap.Workers.Ack.Count, snap.Workers.Tasks, snap.Workers.Fused, snap.Workers.IdlePolls, len(snap.Traces))
		if diag != nil {
			fmt.Print(diagnosis.Render(diag.Diagnose(reg)))
		}
		if body, err := json.MarshalIndent(snap, "", "  "); err == nil && tel.Addr == "" && tel.Hold == 0 {
			// No endpoint to scrape: the snapshot goes to stdout instead.
			fmt.Println(string(body))
		}
		if tel.Hold > 0 {
			fmt.Printf("holding telemetry endpoint for %v\n", tel.Hold)
			time.Sleep(tel.Hold)
		}
	}
	return nil
}
