// Package workflows_test exercises the three paper use cases end-to-end
// under every applicable mapping, checking result correctness (not just
// liveness) and cross-mapping agreement.
package workflows_test

import (
	"os"
	"sync"
	"testing"

	_ "repro/internal/dynamic"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/synth"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/seismic"
	"repro/internal/workflows/sentiment"
)

func testPlatform() platform.Platform {
	return platform.Platform{Name: "test", Cores: 4, QueueOpCost: 0}
}

func withRedis(t *testing.T, opts mapping.Options) mapping.Options {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts.RedisAddrs = []string{srv.Addr()}
	return opts
}

type extCollector struct {
	mu   sync.Mutex
	exts map[string]float64
}

func newExtCollector() *extCollector { return &extCollector{exts: map[string]float64{}} }

func (c *extCollector) add(name string, ext float64) {
	c.mu.Lock()
	c.exts[name] = ext
	c.mu.Unlock()
}

func (c *extCollector) snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.exts))
	for k, v := range c.exts {
		out[k] = v
	}
	return out
}

func TestGalaxyUnderAllMappings(t *testing.T) {
	const n = 20
	reference := map[string]float64{}
	{
		col := newExtCollector()
		g := galaxy.New(galaxy.Config{Galaxies: n, OnResult: col.add})
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g, mapping.Options{Processes: 1, Platform: testPlatform(), Seed: 5}); err != nil {
			t.Fatal(err)
		}
		reference = col.snapshot()
		if len(reference) != n {
			t.Fatalf("reference run computed %d extinctions, want %d", len(reference), n)
		}
	}
	for _, name := range []string{"multi", "mpi", "dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis", "hybrid_redis"} {
		t.Run(name, func(t *testing.T) {
			col := newExtCollector()
			g := galaxy.New(galaxy.Config{Galaxies: n, OnResult: col.add})
			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := mapping.Options{Processes: 5, Platform: testPlatform(), Seed: 5}
			if name == "dyn_redis" || name == "dyn_auto_redis" || name == "hybrid_redis" {
				opts = withRedis(t, opts)
			}
			rep, err := m.Execute(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := col.snapshot()
			if len(got) != n {
				t.Fatalf("%d extinctions, want %d", len(got), n)
			}
			for name, want := range reference {
				if got[name] != want {
					t.Errorf("galaxy %s extinction %v, want %v", name, got[name], want)
				}
			}
			if rep.Outputs != n {
				t.Errorf("outputs=%d want %d", rep.Outputs, n)
			}
		})
	}
}

func TestGalaxyHeavyAddsDelay(t *testing.T) {
	run := func(heavy bool) (runtime float64) {
		g := galaxy.New(galaxy.Config{Galaxies: 10, Heavy: heavy})
		m, _ := mapping.Get("simple")
		rep, err := m.Execute(g, mapping.Options{Processes: 1, Platform: testPlatform(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runtime.Seconds()
	}
	std := run(false)
	heavy := run(true)
	if heavy <= std {
		t.Errorf("heavy runtime %.3fs not above standard %.3fs", heavy, std)
	}
}

func TestGalaxyScaledConfig(t *testing.T) {
	cfg := galaxy.Scaled(5, true)
	if cfg.Galaxies != 500 || !cfg.Heavy {
		t.Errorf("Scaled(5, true) = %+v", cfg)
	}
}

func TestSeismicWritesAllStations(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	written := map[string]int{}
	g := seismic.New(seismic.Config{
		Stations: 12, Samples: 500, OutDir: dir,
		OnWrite: func(st string, n int) {
			mu.Lock()
			written[st] = n
			mu.Unlock()
		},
	})
	m, _ := mapping.Get("dyn_multi")
	rep, err := m.Execute(g, mapping.Options{Processes: 4, Platform: testPlatform(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 12 {
		t.Fatalf("wrote %d stations, want 12", len(written))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Errorf("%d files on disk, want 12", len(entries))
	}
	if rep.Outputs != 12 {
		t.Errorf("outputs=%d want 12", rep.Outputs)
	}
	// Each PE saw each station once: 1 generate + 8 downstream PEs × 12.
	if rep.Tasks != 1+8*12 {
		t.Errorf("tasks=%d want %d", rep.Tasks, 1+8*12)
	}
}

func TestSeismicHasNinePEs(t *testing.T) {
	g := seismic.New(seismic.Config{})
	if got := len(g.Nodes()); got != 9 {
		t.Errorf("seismic phase 1 has %d PEs, want 9 per the paper", got)
	}
	if g.HasStateful() {
		t.Error("phase 1 must be fully stateless")
	}
	if g.MinStaticProcesses() != 9 {
		t.Errorf("multi minimum %d, want 9 (the paper starts multi at 12 ≥ 9)", g.MinStaticProcesses())
	}
}

func TestSeismicPhase2TopPairs(t *testing.T) {
	var mu sync.Mutex
	var got []seismic.PairPayload
	g := seismic.NewPhase2(seismic.Config{Stations: 20, Samples: 400}, 3, func(pairs []seismic.PairPayload) {
		mu.Lock()
		got = append([]seismic.PairPayload(nil), pairs...)
		mu.Unlock()
	})
	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, mapping.Options{Processes: 7, Platform: testPlatform(), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || len(got) > 3 {
		t.Fatalf("top pairs: %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Peak > got[i-1].Peak {
			t.Errorf("top pairs not sorted: %+v", got)
		}
	}
}

func sentimentTop3(t *testing.T, mappingName string, procs int, articles int) []sentiment.StateScore {
	t.Helper()
	var mu sync.Mutex
	var got []sentiment.StateScore
	g := sentiment.New(sentiment.Config{
		Articles: articles,
		OnTop3: func(s []sentiment.StateScore) {
			mu.Lock()
			got = append([]sentiment.StateScore(nil), s...)
			mu.Unlock()
		},
	})
	m, err := mapping.Get(mappingName)
	if err != nil {
		t.Fatal(err)
	}
	opts := mapping.Options{Processes: procs, Platform: testPlatform(), Seed: 6}
	if mappingName == "hybrid_redis" {
		opts = withRedis(t, opts)
	}
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

func TestSentimentTop3AgreesAcrossMappings(t *testing.T) {
	const articles = 60
	ref := sentimentTop3(t, "simple", 1, articles)
	if len(ref) != 3 {
		t.Fatalf("reference top3: %+v", ref)
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].Score > ref[i-1].Score {
			t.Fatalf("reference not sorted: %+v", ref)
		}
	}
	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"multi", sentiment.MinMultiProcesses},
		{"mpi", sentiment.MinMultiProcesses},
		{"hybrid_redis", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := sentimentTop3(t, tc.name, tc.procs, articles)
			if len(got) != 3 {
				t.Fatalf("top3: %+v", got)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("rank %d: got %+v want %+v", i, got[i], ref[i])
				}
			}
		})
	}
}

func TestSentimentMinMultiProcesses(t *testing.T) {
	g := sentiment.New(sentiment.Config{})
	if got := g.MinStaticProcesses(); got != sentiment.MinMultiProcesses || sentiment.MinMultiProcesses != 14 {
		t.Errorf("min static processes = %d, want 14 (paper's multi minimum)", got)
	}
	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, mapping.Options{Processes: 10, Platform: testPlatform()}); err == nil {
		t.Error("multi below its minimum should fail")
	}
}

func TestSentimentRejectsDynamicMappings(t *testing.T) {
	g := sentiment.New(sentiment.Config{})
	for _, name := range []string{"dyn_multi", "dyn_auto_multi"} {
		m, _ := mapping.Get(name)
		if _, err := m.Execute(g, mapping.Options{Processes: 8, Platform: testPlatform()}); err == nil {
			t.Errorf("%s must reject the stateful sentiment workflow", name)
		}
	}
}

func sentimentTop3Managed(t *testing.T, mappingName string, procs int, articles int) []sentiment.StateScore {
	t.Helper()
	var mu sync.Mutex
	var got []sentiment.StateScore
	g := sentiment.New(sentiment.Config{
		Articles:     articles,
		ManagedState: true,
		OnTop3: func(s []sentiment.StateScore) {
			mu.Lock()
			got = append([]sentiment.StateScore(nil), s...)
			mu.Unlock()
		},
	})
	m, err := mapping.Get(mappingName)
	if err != nil {
		t.Fatal(err)
	}
	opts := mapping.Options{Processes: procs, Platform: testPlatform(), Seed: 6}
	switch mappingName {
	case "hybrid_redis", "hybrid_auto_redis", "dyn_redis", "dyn_auto_redis":
		opts = withRedis(t, opts)
	}
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

// TestSentimentManagedStateAgreesEverywhere is the headline capability of
// the state subsystem: the managed-state sentiment workflow produces the
// field-state reference ranking under every mapping — including the plain
// dynamic mappings, which reject the field-state version outright.
func TestSentimentManagedStateAgreesEverywhere(t *testing.T) {
	const articles = 60
	ref := sentimentTop3(t, "simple", 1, articles)
	if len(ref) != 3 {
		t.Fatalf("reference top3: %+v", ref)
	}
	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"simple", 1},
		{"multi", sentiment.MinMultiProcesses},
		{"dyn_multi", 6},
		{"dyn_auto_multi", 6},
		{"dyn_redis", 6},
		{"dyn_auto_redis", 6},
		{"hybrid_redis", 8},
		{"hybrid_auto_redis", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := sentimentTop3Managed(t, tc.name, tc.procs, articles)
			if len(got) != 3 {
				t.Fatalf("top3: %+v", got)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("rank %d: got %+v want %+v", i, got[i], ref[i])
				}
			}
		})
	}
}

func TestSentimentTop3IsPlausible(t *testing.T) {
	// The synthetic corpus biases states deterministically; the top-3 must
	// be valid states with the highest scores overall.
	got := sentimentTop3(t, "simple", 1, 80)
	valid := map[string]bool{}
	for _, s := range synth.USStates {
		valid[s] = true
	}
	for _, s := range got {
		if !valid[s.State] {
			t.Errorf("top3 contains unknown state %q", s.State)
		}
	}
}
