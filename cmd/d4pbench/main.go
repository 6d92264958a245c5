// Command d4pbench regenerates the paper's evaluation: every figure and
// table of Section 5, written as aligned text and CSV under -out. It is the
// reproduction half of the repo; the engine's performance is judged by the
// frozen workloads of `go run ./benchmark` instead.
//
// Usage:
//
//	d4pbench                  # full suite (paper-scale sweeps, ~minutes)
//	d4pbench -quick           # seconds-scale smoke run
//	d4pbench -fig 8           # only Figure 8
//	d4pbench -table 1         # only Table 1 (runs the figures it needs)
//	d4pbench -out results     # output directory (default "results")
//	d4pbench -json            # also write a figNN.json result file per figure
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
	_ "repro/internal/redismap"
	"repro/internal/telemetry"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "run the seconds-scale smoke configuration")
		fig     = flag.Int("fig", 0, "run only this figure (8-13); 0 means all")
		table   = flag.Int("table", 0, "run only this table (1-3); 0 means all")
		outDir  = flag.String("out", "results", "output directory")
		reps    = flag.Int("reps", 1, "repetitions per point (averaged)")
		opDelay = flag.Duration("redis-op-delay", 0, "extra per-command service delay in the embedded Redis")
		jsonOut = flag.Bool("json", false, "additionally write a machine-readable figNN.json result file per figure")
		telAddr = flag.String("telemetry-addr", "", "serve the suite's live telemetry on this address (/metrics, /flights, /debug/pprof); empty disables")
	)
	flag.Parse()

	// One registry and one diagnosis accumulate across every run of the
	// invocation; the final snapshot and diagnosis report are embedded in the
	// -json outputs and optionally served live while the suite executes.
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

	if err := run(*quick, *fig, *table, *outDir, *reps, *opDelay, *jsonOut, reg, diag); err != nil {
		fmt.Fprintln(os.Stderr, "d4pbench:", err)
		os.Exit(1)
	}
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
// seconds so downstream tooling can diff figures across commits without
// parsing Go duration strings.
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

// writeBenchJSON writes <name>.json, the machine-readable counterpart of a
// figure's txt/csv outputs. The suite's telemetry snapshot so far rides along
// so the file carries latency distributions (pull/ack/emit p50/p99), not just
// end-to-end durations; the diagnosis report adds the bottleneck verdict and
// the per-PE flow ledger.
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
	return writeFile(dir, name+".json", string(body))
}
