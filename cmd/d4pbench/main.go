// Command d4pbench regenerates the paper's evaluation: every figure and
// table of Section 5, written as aligned text and CSV under -out.
//
// Usage:
//
//	d4pbench                  # full suite (paper-scale sweeps, ~minutes)
//	d4pbench -quick           # seconds-scale smoke run
//	d4pbench -fig 8           # only Figure 8
//	d4pbench -table 1         # only Table 1 (runs the figures it needs)
//	d4pbench -out results     # output directory (default "results")
//	d4pbench -sweep           # batching sweep (batch sizes 1, 8, 64, auto),
//	                          # writes BENCH_batching.json
//	d4pbench -recovery        # exactly-once recovery overhead (fenced vs
//	                          # unfenced managed state), writes BENCH_recovery.json
//	d4pbench -openloop        # open-loop steady-state sweep (paced arrival
//	                          # rates, p50/p99 latency, max sustainable
//	                          # throughput), writes BENCH_codec.json
//	d4pbench -shards          # shard-scaling sweep: the zipfian sessionization
//	                          # open-loop ladder at 1, 2, and 4 Redis shards,
//	                          # writes BENCH_shard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/diagnosis"
	_ "repro/internal/dynamic"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	_ "repro/internal/mpi"
	_ "repro/internal/multiproc"
	"repro/internal/redisclient"
	_ "repro/internal/redismap"
	"repro/internal/state"
	"repro/internal/telemetry"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run the seconds-scale smoke configuration")
		fig      = flag.Int("fig", 0, "run only this figure (8-13); 0 means all")
		table    = flag.Int("table", 0, "run only this table (1-3); 0 means all")
		outDir   = flag.String("out", "results", "output directory")
		reps     = flag.Int("reps", 1, "repetitions per point (averaged)")
		opDelay  = flag.Duration("redis-op-delay", 0, "extra per-command service delay in the embedded Redis")
		jsonOut  = flag.Bool("json", false, "additionally write BENCH_<name>.json result files (machine-readable perf trajectory)")
		sweep    = flag.Bool("sweep", false, "run the batching sweep (batch sizes 1, 8, 64, auto) and write BENCH_batching.json instead of the figure suite")
		recovery = flag.Bool("recovery", false, "run the exactly-once recovery scenario (fenced vs unfenced managed state on the batched Redis path) and write BENCH_recovery.json")
		openloop = flag.Bool("openloop", false, "run the open-loop steady-state sweep (paced arrival rates over the packed-frame Redis path) and write BENCH_codec.json")
		shards   = flag.Bool("shards", false, "run the shard-scaling sweep (sessionization rate ladder at 1, 2, 4 Redis shards) and write BENCH_shard.json")
		dispatch = flag.Duration("redis-dispatch-delay", 120*time.Microsecond, "per-shard single-threaded service time modeled by the shard sweep (held under the embedded server's dispatch lock)")
		telAddr  = flag.String("telemetry-addr", "", "serve the suite's live telemetry on this address (/metrics, /flights, /debug/pprof); empty disables")
	)
	flag.Parse()

	// One registry and one diagnosis accumulate across every run of the
	// invocation; the final snapshot and diagnosis report are embedded in
	// BENCH_<name>.json outputs and optionally served live while the suite
	// executes.
	reg := telemetry.New(telemetry.Config{})
	diag := diagnosis.New(diagnosis.Config{})
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "d4pbench: telemetry endpoint:", err)
			os.Exit(1)
		}
		defer srv.Close()
		diag.Attach(srv, reg)
		fmt.Printf("telemetry at http://%s/metrics (diagnosis at /diagnosis, journal at /journal)\n", srv.Addr())
	}

	if *sweep {
		if err := runSweep(*quick, *outDir, *reps, *opDelay, reg, diag); err != nil {
			fmt.Fprintln(os.Stderr, "d4pbench:", err)
			os.Exit(1)
		}
		return
	}
	if *recovery {
		if err := runRecovery(*quick, *outDir, *reps, *opDelay, reg, diag); err != nil {
			fmt.Fprintln(os.Stderr, "d4pbench:", err)
			os.Exit(1)
		}
		return
	}
	if *openloop {
		if err := runOpenLoop(*quick, *outDir, *opDelay, reg, diag); err != nil {
			fmt.Fprintln(os.Stderr, "d4pbench:", err)
			os.Exit(1)
		}
		return
	}
	if *shards {
		if err := runShards(*quick, *outDir, *dispatch, reg, diag); err != nil {
			fmt.Fprintln(os.Stderr, "d4pbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*quick, *fig, *table, *outDir, *reps, *opDelay, *jsonOut, reg, diag); err != nil {
		fmt.Fprintln(os.Stderr, "d4pbench:", err)
		os.Exit(1)
	}
}

// runSweep executes the batched emit+consume sweep and writes its txt/csv
// renderings plus BENCH_batching.json, the machine-readable point of the
// perf trajectory CI tracks across PRs.
func runSweep(quick bool, outDir string, reps int, opDelay time.Duration, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	scale := harness.FullScale()
	if quick {
		scale = harness.QuickScale()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	runner := &harness.Runner{Out: os.Stdout, Repetitions: reps, RedisOpDelay: opDelay, Telemetry: reg, Diag: diag}
	defer runner.Close()

	var all []metrics.Series
	for _, e := range harness.SweepBatching(scale) {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		series, err := runner.RunExperiment(e)
		if err != nil {
			return err
		}
		// One series per (technique, window): fold the experiment's window
		// label into the series label so the sweep reads as one grid.
		window := strings.TrimPrefix(e.ID, "batching-")
		for j := range series {
			series[j].Label = series[j].Label + " " + window
		}
		all = append(all, series...)
	}
	if err := writeFile(outDir, "batching.txt", metrics.RenderSeries("Batched emit+consume sweep (galaxy, server)", all)); err != nil {
		return err
	}
	if err := writeFile(outDir, "batching.csv", metrics.CSV(all)); err != nil {
		return err
	}
	return writeBenchJSON(outDir, "batching", all, reg, diag)
}

// runRecovery executes the exactly-once recovery scenario — the managed-
// state sentiment workload on the batched dyn_redis path, with replay
// recovery (and therefore sequence fencing) off versus on — and writes its
// txt/csv renderings plus BENCH_recovery.json, recording what exactly-once-
// effect recovery costs on a healthy run.
func runRecovery(quick bool, outDir string, reps int, opDelay time.Duration, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	scale := harness.FullScale()
	if quick {
		scale = harness.QuickScale()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := assertFencedRoundTrips(); err != nil {
		return err
	}
	runner := &harness.Runner{Out: os.Stdout, Repetitions: reps, RedisOpDelay: opDelay, Telemetry: reg, Diag: diag}
	defer runner.Close()

	var all []metrics.Series
	for _, e := range harness.SweepRecovery(scale) {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		series, err := runner.RunExperiment(e)
		if err != nil {
			return err
		}
		// One series per variant: fold the experiment's fencing label into
		// the series label so the pair reads as one comparison.
		label := strings.TrimPrefix(e.ID, "recovery-")
		for j := range series {
			series[j].Label = series[j].Label + " " + label
		}
		all = append(all, series...)
	}
	if len(all) == 2 && len(all[0].Points) == 1 && len(all[1].Points) == 1 {
		base, fenced := all[0].Points[0].Runtime, all[1].Points[0].Runtime
		fmt.Printf("fencing overhead: %+.2f%% (unfenced %v → fenced %v)\n",
			100*(fenced.Seconds()-base.Seconds())/base.Seconds(), base, fenced)
	}
	if err := writeFile(outDir, "recovery.txt", metrics.RenderSeries("Exactly-once recovery overhead (sentiment managed, dyn_redis, server)", all)); err != nil {
		return err
	}
	if err := writeFile(outDir, "recovery.csv", metrics.CSV(all)); err != nil {
		return err
	}
	return writeBenchJSON(outDir, "recovery", all, reg, diag)
}

// assertFencedRoundTrips pins the structural half of the recovery-overhead
// claim: a fenced Put/AddInt/Delete each costs exactly ONE client round trip
// (the FENCEAPPLY compound command), down from the two-op record-then-apply
// sequence the fence originally needed. Wall-clock overhead in the sweep can
// drown in scheduler noise; the round-trip count cannot.
func assertFencedRoundTrips() error {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		return err
	}
	defer cluster.Close()
	cl := cluster.Shard(0)
	st, err := state.NewRedisClusterBackend(cluster, "rt").Open("probe")
	if err != nil {
		return err
	}
	scope := state.NewFencedStore(st).NewScope()
	scope.SetToken(state.Token{Src: 1, Seq: 1})
	defer scope.ClearToken()

	check := func(op string, fn func() error) error {
		before := cl.Stats().RoundTrips
		if err := fn(); err != nil {
			return fmt.Errorf("fenced %s: %w", op, err)
		}
		if got := cl.Stats().RoundTrips - before; got != 1 {
			return fmt.Errorf("fenced %s cost %d round trips, want 1 (compound write path regressed)", op, got)
		}
		return nil
	}
	if err := check("Put", func() error { return scope.Put("k", "v") }); err != nil {
		return err
	}
	if err := check("AddInt", func() error { _, err := scope.AddInt("n", 3); return err }); err != nil {
		return err
	}
	if err := check("Delete", func() error { return scope.Delete("k") }); err != nil {
		return err
	}
	fmt.Println("fenced round trips: Put/AddInt/Delete each 1 (compound FENCEAPPLY path)")
	return nil
}

// runOpenLoop executes the open-loop steady-state sweep: for each workload, a
// rate ladder of sustained paced runs over the packed-frame dyn_redis path,
// reporting p50/p99 latency per rate and the maximum sustainable throughput.
// Unlike the closed-loop figures (sources emit as fast as the pipeline
// admits, so only total runtime is observable), the paced source exposes the
// latency-vs-load curve and the throughput wall — the steady-state numbers
// the codec and frame-packing work targets. Writes openloop.txt/csv and
// BENCH_codec.json.
func runOpenLoop(quick bool, outDir string, opDelay time.Duration, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	runner := &harness.Runner{Out: os.Stdout, RedisOpDelay: opDelay, Telemetry: reg, Diag: diag}
	defer runner.Close()

	base := harness.OpenLoopConfig{
		Mapping:   "dyn_redis",
		Processes: 8,
		Duration:  30 * time.Second,
		Users:     1_000_000,
		Seed:      17,
	}
	rates := []float64{1000, 2000, 4000, 8000, 16000}
	if quick {
		base.Duration = 2 * time.Second
		base.Users = 50_000
		rates = []float64{500, 2000}
	}

	var all []harness.OpenLoopPoint
	maxSustainable := map[string]float64{}
	saturation := map[string]*diagnosis.Verdict{}
	for _, workload := range []string{"relay", "session"} {
		cfg := base
		cfg.Workload = workload
		fmt.Printf("== openloop-%s: paced %s workload on %s (%v per rate)\n", workload, workload, cfg.Mapping, cfg.Duration)
		pts, max, err := runner.OpenLoopSweep(cfg, rates)
		if err != nil {
			return err
		}
		all = append(all, pts...)
		maxSustainable[workload] = max
		// The last point of a sweep is the first unsustainable rate (or the
		// top of the ladder): its verdict names what the workload saturated on.
		if len(pts) > 0 && pts[len(pts)-1].Verdict != nil {
			saturation[workload] = pts[len(pts)-1].Verdict
		}
	}
	for workload, max := range maxSustainable {
		fmt.Printf("max sustainable %-8s %.0f events/s\n", workload, max)
		if v := saturation[workload]; v != nil {
			fmt.Printf("  saturation verdict: bottleneck=%s stage=%s util=%.2f ceiling=%.0f/s\n",
				v.Bottleneck, v.Stage, v.Utilization, v.CeilingPerSec)
		}
	}
	report := diag.Diagnose(reg)
	fmt.Print(diagnosis.Render(report))
	title := fmt.Sprintf("Open-loop steady state (%s, %d workers, packed frames)", base.Mapping, base.Processes)
	if err := writeFile(outDir, "openloop.txt", harness.RenderOpenLoop(title, all)); err != nil {
		return err
	}
	if err := writeFile(outDir, "openloop.csv", harness.OpenLoopCSV(all)); err != nil {
		return err
	}
	return writeOpenLoopJSON(outDir, all, maxSustainable, saturation, reg, &report)
}

// openLoopJSONPoint is one open-loop run in the machine-readable schema.
// Latencies are milliseconds, rates events/second.
type openLoopJSONPoint struct {
	Workload      string             `json:"workload"`
	Mapping       string             `json:"mapping"`
	Processes     int                `json:"processes"`
	TargetRate    float64            `json:"target_rate"`
	OfferedRate   float64            `json:"offered_rate"`
	DeliveredRate float64            `json:"delivered_rate"`
	Offered       int64              `json:"offered"`
	Delivered     int64              `json:"delivered"`
	GenSeconds    float64            `json:"gen_seconds"`
	DrainSeconds  float64            `json:"drain_seconds"`
	P50Millis     float64            `json:"p50_ms"`
	P99Millis     float64            `json:"p99_ms"`
	MaxMillis     float64            `json:"max_ms"`
	Sustainable   bool               `json:"sustainable"`
	Verdict       *diagnosis.Verdict `json:"verdict,omitempty"`
}

// writeOpenLoopJSON writes BENCH_codec.json: the open-loop points (each with
// its bottleneck verdict), the per-workload max sustainable throughput and
// saturation verdict, the suite's telemetry snapshot, and the final diagnosis
// report (verdict, flow ledger, blame, journal).
func writeOpenLoopJSON(dir string, pts []harness.OpenLoopPoint, maxSustainable map[string]float64,
	saturation map[string]*diagnosis.Verdict, reg *telemetry.Registry, report *diagnosis.Report) error {
	out := struct {
		Name           string                        `json:"name"`
		Points         []openLoopJSONPoint           `json:"points"`
		MaxSustainable map[string]float64            `json:"max_sustainable_rate"`
		Saturation     map[string]*diagnosis.Verdict `json:"saturation_verdict,omitempty"`
		Telemetry      *telemetry.Snapshot           `json:"telemetry,omitempty"`
		Diagnosis      *diagnosis.Report             `json:"diagnosis,omitempty"`
	}{Name: "codec", MaxSustainable: maxSustainable, Saturation: saturation, Diagnosis: report}
	for _, p := range pts {
		out.Points = append(out.Points, openLoopJSONPoint{
			Workload:      p.Workload,
			Mapping:       p.Mapping,
			Processes:     p.Processes,
			TargetRate:    p.TargetRate,
			OfferedRate:   p.OfferedRate,
			DeliveredRate: p.DeliveredRate,
			Offered:       p.Offered,
			Delivered:     p.Delivered,
			GenSeconds:    p.GenSeconds,
			DrainSeconds:  p.DrainSeconds,
			P50Millis:     float64(p.P50) / 1e6,
			P99Millis:     float64(p.P99) / 1e6,
			MaxMillis:     float64(p.Max) / 1e6,
			Sustainable:   p.Sustainable,
			Verdict:       p.Verdict,
		})
	}
	if reg != nil {
		snap := reg.Snapshot()
		out.Telemetry = &snap
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(dir, "BENCH_codec.json", string(body))
}

// runShards executes the shard-scaling sweep: the zipfian sessionization
// open-loop ladder at 1, 2, and 4 Redis shards, with AddInt coalescing on
// (the hot path this workload exercises). Each shard is an embedded server
// whose dispatch lock holds a fixed per-command service time — the
// single-threaded bandwidth model of a real Redis shard, which in-process
// servers sharing this machine's CPUs cannot exhibit natively. Adding shards
// multiplies that aggregate bandwidth exactly the way added Redis servers
// would, so the max-sustainable-rate ratio across shard counts measures what
// the consistent-hash data plane actually buys: whether routing, packing,
// per-shard acks and scatter-gather drains spread the command stream evenly
// enough to harvest the added capacity. Writes shard.txt/csv and
// BENCH_shard.json.
func runShards(quick bool, outDir string, dispatchDelay time.Duration, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := harness.OpenLoopConfig{
		Mapping:       "dyn_redis",
		Workload:      "session",
		Processes:     8,
		Duration:      8 * time.Second,
		Users:         200_000,
		Seed:          17,
		StateCoalesce: true,
	}
	rates := []float64{100, 200, 300, 400, 600, 800, 1200, 1600, 2400, 3200}
	if quick {
		base.Duration = 1500 * time.Millisecond
		base.Users = 20_000
		rates = []float64{150, 300, 600}
	}

	shardCounts := []int{1, 2, 4}
	type ladder struct {
		shards int
		pts    []harness.OpenLoopPoint
		max    float64
	}
	var ladders []ladder
	for _, n := range shardCounts {
		fmt.Printf("== shard-%d: paced session workload on %s, %d shard(s), dispatch delay %v\n",
			n, base.Mapping, n, dispatchDelay)
		runner := &harness.Runner{
			Out:                os.Stdout,
			Shards:             n,
			RedisDispatchDelay: dispatchDelay,
			Telemetry:          reg,
			Diag:               diag,
		}
		pts, max, err := runner.OpenLoopSweep(base, rates)
		runner.Close()
		if err != nil {
			return err
		}
		ladders = append(ladders, ladder{shards: n, pts: pts, max: max})
		fmt.Printf("max sustainable at %d shard(s): %.0f events/s\n", n, max)
	}

	speedup := 0.0
	if first, last := ladders[0], ladders[len(ladders)-1]; first.max > 0 {
		speedup = last.max / first.max
		fmt.Printf("shard scaling: %.2fx max sustainable rate at %d shards vs %d\n",
			speedup, last.shards, first.shards)
	}

	var txt, csv strings.Builder
	csv.WriteString("shards,workload,mapping,processes,target_rate,offered_rate,delivered_rate,p50_ms,p99_ms,drain_seconds,sustainable\n")
	for _, l := range ladders {
		txt.WriteString(harness.RenderOpenLoop(fmt.Sprintf("%d shard(s)", l.shards), l.pts))
		for _, p := range l.pts {
			fmt.Fprintf(&csv, "%d,%s,%s,%d,%.0f,%.2f,%.2f,%.3f,%.3f,%.3f,%v\n",
				l.shards, p.Workload, p.Mapping, p.Processes, p.TargetRate, p.OfferedRate,
				p.DeliveredRate, float64(p.P50)/1e6, float64(p.P99)/1e6, p.DrainSeconds, p.Sustainable)
		}
	}
	title := fmt.Sprintf("Shard scaling (%s session, %d workers, coalesced state, %v dispatch delay)",
		base.Mapping, base.Processes, dispatchDelay)
	if err := writeFile(outDir, "shard.txt", title+"\n"+txt.String()); err != nil {
		return err
	}
	if err := writeFile(outDir, "shard.csv", csv.String()); err != nil {
		return err
	}

	out := struct {
		Name            string              `json:"name"`
		DispatchDelayMs float64             `json:"dispatch_delay_ms"`
		Ladders         []shardLadderJSON   `json:"ladders"`
		Speedup         float64             `json:"speedup_max_shards_vs_one"`
		Telemetry       *telemetry.Snapshot `json:"telemetry,omitempty"`
	}{Name: "shard", DispatchDelayMs: float64(dispatchDelay) / 1e6, Speedup: speedup}
	for _, l := range ladders {
		lj := shardLadderJSON{Shards: l.shards, MaxSustainableRate: l.max}
		for _, p := range l.pts {
			lj.Points = append(lj.Points, openLoopJSONPoint{
				Workload:      p.Workload,
				Mapping:       p.Mapping,
				Processes:     p.Processes,
				TargetRate:    p.TargetRate,
				OfferedRate:   p.OfferedRate,
				DeliveredRate: p.DeliveredRate,
				Offered:       p.Offered,
				Delivered:     p.Delivered,
				GenSeconds:    p.GenSeconds,
				DrainSeconds:  p.DrainSeconds,
				P50Millis:     float64(p.P50) / 1e6,
				P99Millis:     float64(p.P99) / 1e6,
				MaxMillis:     float64(p.Max) / 1e6,
				Sustainable:   p.Sustainable,
			})
		}
		out.Ladders = append(out.Ladders, lj)
	}
	if reg != nil {
		snap := reg.Snapshot()
		out.Telemetry = &snap
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(outDir, "BENCH_shard.json", string(body))
}

// shardLadderJSON is one shard count's rate ladder in BENCH_shard.json.
type shardLadderJSON struct {
	Shards             int                 `json:"shards"`
	MaxSustainableRate float64             `json:"max_sustainable_rate"`
	Points             []openLoopJSONPoint `json:"points"`
}

func run(quick bool, fig, table int, outDir string, reps int, opDelay time.Duration, jsonOut bool, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	scale := harness.FullScale()
	if quick {
		scale = harness.QuickScale()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	runner := &harness.Runner{Out: os.Stdout, Repetitions: reps, RedisOpDelay: opDelay, Telemetry: reg, Diag: diag}
	defer runner.Close()

	wantFig := func(n int) bool {
		if table != 0 {
			// Tables pull in their figures.
			switch table {
			case 1:
				return n >= 8 && n <= 10
			case 2:
				return n == 11
			case 3:
				return n == 12
			}
		}
		return fig == 0 && table == 0 || fig == n
	}

	// figure panels by figure number, kept for table construction.
	panels := map[int][][]metrics.Series{}
	runFigure := func(n int, exps []harness.Experiment) error {
		if !wantFig(n) {
			return nil
		}
		var rendered []string
		var allSeries []metrics.Series
		for _, e := range exps {
			fmt.Printf("== %s: %s\n", e.ID, e.Title)
			series, err := runner.RunExperiment(e)
			if err != nil {
				return err
			}
			panels[n] = append(panels[n], series)
			rendered = append(rendered, metrics.RenderSeries(e.Title, series))
			allSeries = append(allSeries, series...)
		}
		name := fmt.Sprintf("fig%02d", n)
		if err := writeFile(outDir, name+".txt", strings.Join(rendered, "\n")); err != nil {
			return err
		}
		if err := writeFile(outDir, name+".csv", metrics.CSV(allSeries)); err != nil {
			return err
		}
		if jsonOut {
			return writeBenchJSON(outDir, name, allSeries, reg, diag)
		}
		return nil
	}

	if err := runFigure(8, harness.Fig8(scale)); err != nil {
		return err
	}
	if err := runFigure(9, harness.Fig9(scale)); err != nil {
		return err
	}
	if err := runFigure(10, harness.Fig10(scale)); err != nil {
		return err
	}
	if err := runFigure(11, harness.Fig11(scale)); err != nil {
		return err
	}
	if err := runFigure(12, harness.Fig12(scale)); err != nil {
		return err
	}

	if wantFig(13) && table == 0 {
		var rendered []string
		for _, e := range harness.Fig13(scale) {
			fmt.Printf("== %s: %s\n", e.ID, e.Title)
			trace, rep, err := runner.RunTrace(e)
			if err != nil {
				return err
			}
			fmt.Printf("  %s\n", rep)
			rendered = append(rendered, harness.RenderTrace(e.Title, trace))
			if err := writeFile(outDir, e.ID+".csv", harness.TraceCSV(trace)); err != nil {
				return err
			}
		}
		if err := writeFile(outDir, "fig13.txt", strings.Join(rendered, "\n")); err != nil {
			return err
		}
	}

	// Tables from the collected figure panels.
	writeTables := func(n int, platformPanels map[string][]int, pairs []harness.TablePair) error {
		if table != 0 && table != n {
			return nil
		}
		if table == 0 && fig != 0 {
			return nil
		}
		var rendered []string
		for _, plat := range []string{"server", "cloud", "hpc"} {
			figNums, ok := platformPanels[plat]
			if !ok {
				continue
			}
			var pool [][]metrics.Series
			for _, fn := range figNums {
				pool = append(pool, panels[fn]...)
			}
			for _, tb := range harness.BuildTables(plat, pairs, pool) {
				rendered = append(rendered, tb.Render())
			}
		}
		body := strings.Join(rendered, "\n")
		fmt.Printf("== Table %d\n%s\n", n, body)
		return writeFile(outDir, fmt.Sprintf("table%d.txt", n), body)
	}

	if err := writeTables(1, map[string][]int{"server": {8}, "cloud": {9}, "hpc": {10}}, harness.Table1Pairs); err != nil {
		return err
	}
	// Table 2 uses the same pairs as Table 1, over the seismic panels. The
	// fig11 slice holds server, cloud, hpc panels in order.
	if wantFig(11) && (table == 0 || table == 2) && len(panels[11]) == 3 {
		var rendered []string
		for i, plat := range []string{"server", "cloud", "hpc"} {
			for _, tb := range harness.BuildTables(plat, harness.Table1Pairs, [][]metrics.Series{panels[11][i]}) {
				rendered = append(rendered, tb.Render())
			}
		}
		body := strings.Join(rendered, "\n")
		fmt.Printf("== Table 2\n%s\n", body)
		if err := writeFile(outDir, "table2.txt", body); err != nil {
			return err
		}
	}
	if wantFig(12) && (table == 0 || table == 3) && len(panels[12]) == 2 {
		var rendered []string
		for i, plat := range []string{"server", "cloud"} {
			for _, tb := range harness.BuildTables(plat, harness.Table3Pairs, [][]metrics.Series{panels[12][i]}) {
				rendered = append(rendered, tb.Render())
			}
		}
		body := strings.Join(rendered, "\n")
		fmt.Printf("== Table 3\n%s\n", body)
		if err := writeFile(outDir, "table3.txt", body); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(dir, name, body string) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchPoint is one run in the machine-readable result schema. Durations are
// seconds so downstream tooling can diff the perf trajectory across PRs
// without parsing Go duration strings.
type benchPoint struct {
	Workflow           string  `json:"workflow"`
	Mapping            string  `json:"mapping"`
	Platform           string  `json:"platform"`
	Processes          int     `json:"processes"`
	RuntimeSeconds     float64 `json:"runtime_seconds"`
	ProcessTimeSeconds float64 `json:"process_time_seconds"`
	Tasks              int64   `json:"tasks"`
	Outputs            int64   `json:"outputs"`
	StateOps           int64   `json:"state_ops,omitempty"`
}

// benchSeries is one technique's sweep in the JSON schema.
type benchSeries struct {
	Label  string       `json:"label"`
	Points []benchPoint `json:"points"`
}

// writeBenchJSON writes BENCH_<name>.json, the machine-readable counterpart
// of a figure's txt/csv outputs. The suite's final telemetry snapshot rides
// along so the perf trajectory carries latency distributions (pull/ack/emit
// p50/p99), not just end-to-end durations; the diagnosis report adds the
// bottleneck verdict and the per-PE flow ledger.
func writeBenchJSON(dir, name string, series []metrics.Series, reg *telemetry.Registry, diag *diagnosis.Diag) error {
	out := struct {
		Name      string              `json:"name"`
		Series    []benchSeries       `json:"series"`
		Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
		Diagnosis *diagnosis.Report   `json:"diagnosis,omitempty"`
	}{Name: name}
	for _, s := range series {
		bs := benchSeries{Label: s.Label, Points: make([]benchPoint, 0, len(s.Points))}
		for _, p := range s.Points {
			bs.Points = append(bs.Points, benchPoint{
				Workflow:           p.Workflow,
				Mapping:            p.Mapping,
				Platform:           p.Platform,
				Processes:          p.Processes,
				RuntimeSeconds:     p.Runtime.Seconds(),
				ProcessTimeSeconds: p.ProcessTime.Seconds(),
				Tasks:              p.Tasks,
				Outputs:            p.Outputs,
				StateOps:           p.State.Total(),
			})
		}
		out.Series = append(out.Series, bs)
	}
	if reg != nil {
		snap := reg.Snapshot()
		out.Telemetry = &snap
	}
	if diag != nil {
		report := diag.Diagnose(reg)
		out.Diagnosis = &report
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(dir, "BENCH_"+name+".json", string(body))
}
