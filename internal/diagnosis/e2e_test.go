package diagnosis_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap" // register dyn_redis
	"repro/internal/telemetry"
)

// slowPipeGraph builds gen → fast → slow → sink where slow sleeps per task —
// the deliberately bottlenecked pipeline of the acceptance scenario.
func slowPipeGraph(items int, slowBy time.Duration, delivered *atomic.Int64) *graph.Graph {
	g := graph.New("slowpipe")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < items; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("fast", func(ctx *core.Context, v any) (any, error) {
			return v.(int) + 1, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("slow", func(ctx *core.Context, v any) (any, error) {
			time.Sleep(slowBy)
			return v, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			delivered.Add(1)
			return nil
		})
	})
	g.Pipe("gen", "fast")
	g.Pipe("fast", "slow")
	g.Pipe("slow", "sink")
	return g
}

// TestDiagnosisNamesSlowPEOnDynRedis is the acceptance scenario: a dyn_redis
// run with one deliberately slow PE must yield a verdict naming that PE as the
// bottleneck, with queue-wait/service decomposition behind it, a populated
// flow ledger, and a journal covering the run lifecycle.
func TestDiagnosisNamesSlowPEOnDynRedis(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var delivered atomic.Int64
	const items = 60
	g := slowPipeGraph(items, 2*time.Millisecond, &delivered)

	m, err := mapping.Get("dyn_redis")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New(telemetry.Config{TraceSampleEvery: 1})
	diag := diagnosis.New(diagnosis.Config{})
	opts := mapping.Options{
		Processes:  4,
		Platform:   platform.Platform{Name: "test", Cores: 4},
		Seed:       7,
		RedisAddrs: []string{srv.Addr()},
		Telemetry:  reg,
		Diagnosis:  diag,
		// Flights at a few-ms cadence so the straggler scan has material.
		TelemetryEvery: 3 * time.Millisecond,
	}
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != items {
		t.Fatalf("delivered %d values, want %d", got, items)
	}

	report := diag.Diagnose(reg)

	if report.Verdict.Bottleneck != "slow" {
		t.Fatalf("verdict blames %q (%+v), want the deliberately slow PE", report.Verdict.Bottleneck, report.Verdict)
	}
	if report.Verdict.Stage != "service" && report.Verdict.Stage != "queue_wait" {
		t.Fatalf("verdict stage = %q, want service or queue_wait", report.Verdict.Stage)
	}
	if report.Verdict.Utilization <= 0 || report.Verdict.CeilingPerSec <= 0 {
		t.Fatalf("verdict lacks capacity figures: %+v", report.Verdict)
	}

	// Flow ledger: every PE has a row; the slow PE's service histogram has
	// observed every delivery at >= the injected delay, and queue-wait was
	// sampled (TraceSampleEvery=1 ⇒ every task carries an emission stamp).
	rows := map[string]diagnosis.PEFlowSnapshot{}
	for _, pe := range report.Flow.PEs {
		rows[pe.PE] = pe
	}
	for _, name := range []string{"gen", "fast", "slow", "sink"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("flow ledger missing PE %q (have %v)", name, report.Flow.PEs)
		}
	}
	slow := rows["slow"]
	if slow.TasksIn < items {
		t.Errorf("slow tasks_in = %d, want >= %d", slow.TasksIn, items)
	}
	if slow.Service.Count < items || slow.Service.Mean < float64(2*time.Millisecond) {
		t.Errorf("slow service histogram = %+v, want >= %d obs with mean >= 2ms", slow.Service, items)
	}
	if slow.QueueWait.Count == 0 {
		t.Error("slow queue-wait histogram empty despite full trace sampling")
	}
	if !rows["gen"].Source {
		t.Error("gen not marked as source")
	}
	if rows["gen"].Service.Count != 0 {
		t.Error("source Generate leaked into the service histogram")
	}
	edge := diagnosis.EdgeName("fast", "out", "slow", "in")
	found := false
	for _, e := range report.Flow.Edges {
		if strings.HasPrefix(e.Edge, "fast:") && strings.Contains(e.Edge, "->slow:") {
			found = true
			if e.Tasks != items {
				t.Errorf("edge %s carried %d tasks, want %d", e.Edge, e.Tasks, items)
			}
		}
	}
	if !found {
		t.Errorf("no fast→slow edge row (looked for %s-like among %v)", edge, report.Flow.Edges)
	}

	// Critical-path analysis assembled real paths with the slow PE leading the
	// blame ranking.
	if report.Paths.TotalNs == 0 || len(report.Paths.Blame) == 0 {
		t.Fatalf("path analysis empty: %+v", report.Paths)
	}
	if report.Paths.Blame[0].PE != "slow" {
		t.Errorf("blame leader = %q, want slow (%+v)", report.Paths.Blame[0].PE, report.Paths.Blame)
	}

	// Journal: lifecycle coverage.
	evs := diag.Journal.Events()
	kinds := map[string]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	for _, k := range []string{diagnosis.EvRunStart, diagnosis.EvRunEnd, diagnosis.EvWorkerStart, diagnosis.EvWorkerExit, diagnosis.EvDrain} {
		if kinds[k] == 0 {
			t.Errorf("journal has no %s events (kinds: %v)", k, kinds)
		}
	}
	if kinds[diagnosis.EvWorkerStart] != kinds[diagnosis.EvWorkerExit] {
		t.Errorf("worker_start (%d) and worker_exit (%d) unbalanced", kinds[diagnosis.EvWorkerStart], kinds[diagnosis.EvWorkerExit])
	}
}

// TestDiagnosisEndpoints smokes the /diagnosis and /journal endpoints mounted
// on the telemetry server, plus the /metrics?traces=0 fast path.
func TestDiagnosisEndpoints(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.New(telemetry.Config{TraceSampleEvery: 1})
	diag := diagnosis.New(diagnosis.Config{JournalRing: 128})
	web, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	diag.Attach(web, reg)

	var delivered atomic.Int64
	m, _ := mapping.Get("dyn_redis")
	opts := mapping.Options{
		Processes:  4,
		Platform:   platform.Platform{Name: "test", Cores: 4},
		Seed:       7,
		RedisAddrs: []string{srv.Addr()},
		Telemetry:  reg,
		Diagnosis:  diag,
	}
	if _, err := m.Execute(slowPipeGraph(40, time.Millisecond, &delivered), opts); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", web.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var report diagnosis.Report
	if err := json.Unmarshal(get("/diagnosis"), &report); err != nil {
		t.Fatalf("decode /diagnosis: %v", err)
	}
	if report.Verdict.Bottleneck != "slow" {
		t.Errorf("/diagnosis verdict blames %q, want slow", report.Verdict.Bottleneck)
	}
	if len(report.Flow.PEs) == 0 || report.JournalEvents == 0 {
		t.Errorf("/diagnosis report incomplete: %d PEs, %d journal events", len(report.Flow.PEs), report.JournalEvents)
	}

	text := string(get("/diagnosis?format=text"))
	if !strings.Contains(text, "== diagnosis ==") || !strings.Contains(text, "slow") {
		t.Errorf("/diagnosis?format=text rendering off:\n%s", text)
	}

	var journal struct {
		Total  uint64            `json:"total"`
		Events []diagnosis.Event `json:"events"`
	}
	if err := json.Unmarshal(get("/journal"), &journal); err != nil {
		t.Fatalf("decode /journal: %v", err)
	}
	if journal.Total == 0 || len(journal.Events) == 0 {
		t.Fatal("/journal empty after an instrumented run")
	}
	if err := json.Unmarshal(get("/journal?kind=worker_exit"), &journal); err != nil {
		t.Fatal(err)
	}
	for _, e := range journal.Events {
		if e.Kind != "worker_exit" {
			t.Fatalf("kind filter leaked %+v", e)
		}
	}
	if err := json.Unmarshal(get("/journal?n=3"), &journal); err != nil {
		t.Fatal(err)
	}
	if len(journal.Events) > 3 {
		t.Fatalf("/journal?n=3 returned %d events", len(journal.Events))
	}
	mid := journal.Events[0].Seq
	if err := json.Unmarshal(get(fmt.Sprintf("/journal?since=%d", mid)), &journal); err != nil {
		t.Fatal(err)
	}
	for _, e := range journal.Events {
		if e.Seq <= mid {
			t.Fatalf("since filter leaked seq %d <= %d", e.Seq, mid)
		}
	}
	if resp, err := http.Get(fmt.Sprintf("http://%s/journal?since=bogus", web.Addr())); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad since cursor returned %s, want 400", resp.Status)
		}
		resp.Body.Close()
	}

	// Satellite: /metrics?traces=0 skips trace assembly but keeps the rest.
	var snap telemetry.Snapshot
	if err := json.Unmarshal(get("/metrics?traces=0"), &snap); err != nil {
		t.Fatalf("decode /metrics?traces=0: %v", err)
	}
	if len(snap.Traces) != 0 {
		t.Errorf("traces=0 still assembled %d traces", len(snap.Traces))
	}
	if snap.Workers.Tasks == 0 {
		t.Error("traces=0 snapshot lost worker metrics")
	}
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Traces) == 0 {
		t.Error("full /metrics carries no traces despite sampling every task")
	}
}
