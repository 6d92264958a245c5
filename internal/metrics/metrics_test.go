package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func pt(procs int, rt, proc time.Duration) Report {
	return Report{
		Workflow: "wf", Mapping: "m", Platform: "server",
		Processes: procs, Runtime: rt, ProcessTime: proc, Tasks: 10, Outputs: 5,
	}
}

func TestSeriesSortAndAt(t *testing.T) {
	s := Series{Label: "a", Points: []Report{pt(16, 1, 1), pt(4, 2, 2), pt(8, 3, 3)}}
	s.Sort()
	if s.Points[0].Processes != 4 || s.Points[2].Processes != 16 {
		t.Errorf("sorted: %+v", s.Points)
	}
	if _, ok := s.At(8); !ok {
		t.Error("At(8)")
	}
	if _, ok := s.At(99); ok {
		t.Error("At(99) should miss")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || math.Abs(std-2) > 1e-9 {
		t.Errorf("mean=%v std=%v", mean, std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Error("empty input")
	}
}

func TestPairsFromSeries(t *testing.T) {
	a := Series{Label: "a", Points: []Report{
		pt(4, 900*time.Millisecond, 3*time.Second),
		pt(8, 500*time.Millisecond, 4*time.Second),
		pt(12, 400*time.Millisecond, 5*time.Second),
	}}
	b := Series{Label: "b", Points: []Report{
		pt(4, 1000*time.Millisecond, 4*time.Second),
		pt(8, 500*time.Millisecond, 5*time.Second),
	}}
	pairs := PairsFromSeries(a, b)
	if len(pairs) != 2 {
		t.Fatalf("pairs: %+v", pairs)
	}
	if math.Abs(pairs[0].Runtime-0.9) > 1e-9 || math.Abs(pairs[0].ProcessTime-0.75) > 1e-9 {
		t.Errorf("pair 0: %+v", pairs[0])
	}
}

func TestBuildRatioTable(t *testing.T) {
	pairs := []RatioPair{
		{Processes: 4, Runtime: 0.9, ProcessTime: 0.8},
		{Processes: 8, Runtime: 1.1, ProcessTime: 0.5},
		{Processes: 16, Runtime: 1.4, ProcessTime: 0.6},
	}
	tb, err := BuildRatioTable("server", "auto", "dyn", pairs)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0].PrioritizedBy != "runtime" || tb.Rows[0].Processes != 4 {
		t.Errorf("runtime row: %+v", tb.Rows[0])
	}
	if tb.Rows[1].PrioritizedBy != "process time" || tb.Rows[1].Processes != 8 {
		t.Errorf("process-time row: %+v", tb.Rows[1])
	}
	if tb.N != 3 {
		t.Errorf("N=%d", tb.N)
	}
	wantMean := (0.9 + 1.1 + 1.4) / 3
	if math.Abs(tb.RuntimeMean-wantMean) > 1e-9 {
		t.Errorf("runtime mean: %v", tb.RuntimeMean)
	}
	out := tb.Render()
	for _, want := range []string{"server", "auto / dyn", "runtime", "process time", "[mean, std]"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBuildRatioTableEmpty(t *testing.T) {
	if _, err := BuildRatioTable("server", "a", "b", nil); err == nil {
		t.Error("empty pairs must error")
	}
}

func TestRenderSeriesAlignsMissingPoints(t *testing.T) {
	a := Series{Label: "multi", Points: []Report{pt(12, time.Second, 2*time.Second)}}
	b := Series{Label: "dyn", Points: []Report{pt(4, time.Second, time.Second), pt(12, time.Second, time.Second)}}
	out := RenderSeries("panel", []Series{a, b})
	if !strings.Contains(out, "panel") || !strings.Contains(out, "-") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + two process rows.
	if len(lines) != 4 {
		t.Errorf("lines: %d\n%s", len(lines), out)
	}
}

func TestCSVFormat(t *testing.T) {
	s := Series{Label: "m", Points: []Report{pt(4, 1500*time.Millisecond, 3*time.Second)}}
	s.Points[0].State = StateOps{Gets: 7, Adds: 3, Restores: 1}
	out := CSV([]Series{s})
	wantHeader := "workflow,mapping,platform,processes,runtime_s,proctime_s,tasks,outputs," +
		"state_gets,state_puts,state_deletes,state_adds,state_updates," +
		"state_snapshots,state_restores\n"
	if !strings.HasPrefix(out, wantHeader) {
		t.Errorf("header: %q", out)
	}
	if !strings.Contains(out, "wf,m,server,4,1.5000,3.0000,10,5,7,0,0,3,0,0,1\n") {
		t.Errorf("row: %q", out)
	}
	if got := len(strings.Split(strings.TrimSuffix(wantHeader, "\n"), ",")); got != 15 {
		t.Errorf("header columns: %d", got)
	}
}

// Golden render of the paper-table layout: a formatting regression (shifted
// columns, reordered rows) should fail loudly, not drift silently.
func TestRatioTableRenderGolden(t *testing.T) {
	tb := RatioTable{
		Platform: "server", A: "auto", B: "dyn",
		Rows: []RatioRow{
			{PrioritizedBy: "runtime", Processes: 4, RuntimeRatio: 0.9, ProcessTimeRatio: 0.8},
			{PrioritizedBy: "process time", Processes: 8, RuntimeRatio: 1.1, ProcessTimeRatio: 0.5},
		},
		RuntimeMean: 1.0, RuntimeStd: 0.1,
		ProcessTimeMean: 0.65, ProcessTimeStd: 0.15,
		N: 2,
	}
	want := "server  auto / dyn   (n=2)\n" +
		"  prioritized    procs    runtime ratio  process time ratio\n" +
		"  runtime        4        0.90           0.80\n" +
		"  process time   8        1.10           0.50\n" +
		"  [mean, std]    -        [1.00, 0.10]     [0.65, 0.15]\n"
	if got := tb.Render(); got != want {
		t.Errorf("Render drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderSeriesGolden(t *testing.T) {
	a := Series{Label: "multi", Points: []Report{pt(12, time.Second, 2*time.Second)}}
	b := Series{Label: "dyn", Points: []Report{pt(4, time.Second, time.Second), pt(12, time.Second, time.Second)}}
	want := "panel\n" +
		"procs   | multi rt/pt            | dyn rt/pt             \n" +
		"4       | -                      |        1s / 1s        \n" +
		"12      |        1s / 2s         |        1s / 1s        \n"
	if got := RenderSeries("panel", []Series{a, b}); got != want {
		t.Errorf("RenderSeries drifted:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestReportString(t *testing.T) {
	out := pt(4, time.Second, 2*time.Second).String()
	for _, want := range []string{"wf", "m", "server", "procs=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

// Property: best-by-runtime row is never above any other pair's runtime.
func TestQuickBestRowProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		pairs := make([]RatioPair, len(raw))
		for i, r := range raw {
			pairs[i] = RatioPair{
				Processes:   i + 1,
				Runtime:     0.1 + float64(r%300)/100,
				ProcessTime: 0.1 + float64(r%177)/100,
			}
		}
		tb, err := BuildRatioTable("p", "a", "b", pairs)
		if err != nil {
			return false
		}
		for _, p := range pairs {
			if tb.Rows[0].RuntimeRatio > p.Runtime+1e-12 {
				return false
			}
			if tb.Rows[1].ProcessTimeRatio > p.ProcessTime+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
