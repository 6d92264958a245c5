package harness_test

import (
	"bytes"
	"strings"
	"testing"

	_ "repro/internal/dynamic"
	"repro/internal/harness"
	"repro/internal/metrics"
	_ "repro/internal/redismap"
	"repro/internal/workflows/galaxy"
)

func quickRunner(t *testing.T) *harness.Runner {
	t.Helper()
	r := &harness.Runner{}
	t.Cleanup(r.Close)
	return r
}

func TestRunExperimentGalaxyQuick(t *testing.T) {
	s := harness.QuickScale()
	r := quickRunner(t)
	exp := harness.Fig8(s)[0] // 1X standard on server
	exp.Techniques = []string{"multi", "dyn_multi", "dyn_auto_multi"}
	series, err := r.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series: %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("%s has %d points, want 2", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Runtime <= 0 || p.ProcessTime <= 0 || p.Outputs == 0 {
				t.Errorf("%s: bad point %+v", s.Label, p)
			}
		}
	}
	// Render the panel without error.
	text := metrics.RenderSeries(exp.Title, series)
	if !strings.Contains(text, "multi") || !strings.Contains(text, "procs") {
		t.Errorf("render: %q", text)
	}
	csv := metrics.CSV(series)
	if !strings.Contains(csv, "galaxy,multi,server,4") {
		t.Errorf("csv: %q", csv)
	}
}

func TestRunExperimentSkipsBelowStaticMinimum(t *testing.T) {
	s := harness.QuickScale()
	r := quickRunner(t)
	var buf bytes.Buffer
	r.Out = &buf
	exp := harness.Fig12(s)[0] // sentiment on server: multi needs 14
	exp.Processes = []int{8, 14}
	exp.Techniques = []string{"multi"}
	series, err := r.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 1 {
		t.Fatalf("series: %+v", series)
	}
	if series[0].Points[0].Processes != 14 {
		t.Errorf("surviving point: %+v", series[0].Points[0])
	}
	if !strings.Contains(buf.String(), "skipped") {
		t.Error("skip not reported")
	}
}

func TestRunExperimentRedisTechniques(t *testing.T) {
	s := harness.QuickScale()
	r := quickRunner(t)
	e := harness.Fig8(s)[0]
	e.Techniques = []string{"dyn_redis", "hybrid_redis"}
	e.Processes = []int{4}
	series, err := r.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range series {
		if len(sr.Points) != 1 {
			t.Errorf("%s: %+v", sr.Label, sr.Points)
		}
	}
}

func TestRunTraceProducesPoints(t *testing.T) {
	s := harness.QuickScale()
	r := quickRunner(t)
	for _, e := range harness.Fig13(s)[:2] { // one multi, one redis panel
		trace, rep, err := r.RunTrace(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if rep.Outputs == 0 {
			t.Errorf("%s: no outputs", e.ID)
		}
		if len(trace.Points()) == 0 {
			t.Errorf("%s: empty trace", e.ID)
		}
		text := harness.RenderTrace(e.Title, trace)
		if !strings.Contains(text, "iteration") {
			t.Errorf("%s render: %q", e.ID, text)
		}
		csv := harness.TraceCSV(trace)
		if !strings.HasPrefix(csv, "iteration,active,metric\n") {
			t.Errorf("%s csv: %q", e.ID, csv)
		}
	}
}

func TestBuildTablesPoolsPanels(t *testing.T) {
	s := harness.QuickScale()
	r := quickRunner(t)
	exp := harness.Fig8(s)[0]
	exp.Techniques = []string{"dyn_multi", "dyn_auto_multi"}
	series, err := r.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	tables := harness.BuildTables("server", harness.Table1Pairs, [][]metrics.Series{series})
	// Only the multi pair can be built (no redis series in the panel).
	if len(tables) != 1 {
		t.Fatalf("tables: %+v", tables)
	}
	tb := tables[0]
	if tb.A != "dyn_auto_multi" || tb.B != "dyn_multi" || tb.N != 2 {
		t.Errorf("table: %+v", tb)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("rows: %+v", tb.Rows)
	}
	rendered := tb.Render()
	if !strings.Contains(rendered, "runtime ratio") || !strings.Contains(rendered, "[mean, std]") {
		t.Errorf("render: %q", rendered)
	}
}

func TestCatalogShapes(t *testing.T) {
	full := harness.FullScale()
	if len(harness.Fig8(full)) != 3 || len(harness.Fig9(full)) != 3 || len(harness.Fig10(full)) != 3 {
		t.Error("galaxy figures must have 3 panels each")
	}
	if len(harness.Fig11(full)) != 3 {
		t.Error("fig11 must have 3 panels")
	}
	if len(harness.Fig12(full)) != 2 {
		t.Error("fig12 must have 2 panels")
	}
	if len(harness.Fig13(full)) != 6 {
		t.Error("fig13 must have 6 panels")
	}
	for _, e := range harness.Fig10(full) {
		for _, tech := range e.Techniques {
			if strings.Contains(tech, "redis") {
				t.Errorf("%s: redis technique %s on HPC", e.ID, tech)
			}
		}
	}
	// MakeGraph must return fresh graphs.
	e := harness.Fig8(full)[0]
	if e.MakeGraph() == e.MakeGraph() {
		t.Error("MakeGraph must build a fresh graph per call")
	}
}

func TestFullScaleMatchesPaperParameters(t *testing.T) {
	s := harness.FullScale()
	if s.GalaxyBase != 100 {
		t.Error("1X workload is 100 galaxies")
	}
	if s.Stations != 50 {
		t.Error("seismic input is 50 stations")
	}
	if got := s.ServerProcs; len(got) != 4 || got[0] != 4 || got[3] != 16 {
		t.Errorf("server sweep: %v", got)
	}
	if got := s.HPCProcs; got[len(got)-1] != 64 {
		t.Errorf("hpc sweep: %v", got)
	}
	if got := s.SentimentProcs; got[0] != 8 || got[len(got)-1] != 16 {
		t.Errorf("sentiment sweep: %v", got)
	}
}

// Silence unused-import style complaints for galaxy (used via catalog).
var _ = galaxy.BaseGalaxies
