package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/synth"
)

func init() {
	codec.Register(synth.SessionEvent{})
	codec.Register(synth.SessionUpdate{})
}

// OpenLoopConfig describes one open-loop run: a paced source offers events
// at a fixed target rate for a fixed duration regardless of how fast the
// system drains them — unlike the closed-loop figure experiments, whose
// sources emit as fast as the pipeline admits and therefore can't expose
// steady-state latency or the throughput wall.
type OpenLoopConfig struct {
	// Mapping is the technique under test (default dyn_redis).
	Mapping string
	// Workload selects the pipeline shape: "session" (zipfian-keyed
	// sessionization over managed keyed state, the high-cardinality stateful
	// shape) or "relay" (stateless pass-through, isolating transport+codec).
	Workload string
	// Processes is the worker count (default 8).
	Processes int
	// Rate is the offered arrival rate in events/second (default 1000).
	Rate float64
	// Duration is how long the source offers load (default 30s).
	Duration time.Duration
	// Users is the zipfian key-space cardinality (default 100000).
	Users int
	// Skew is the zipf s parameter (default 1.1).
	Skew float64
	// LatencyBound is the p99 ceiling a sustainable run must hold
	// (default 1s).
	LatencyBound time.Duration
	// Seed drives determinism of keys and actions (not of pacing).
	Seed int64
	// StateCoalesce switches on per-shard AddInt group commit in the run's
	// state backend (mapping.Options.StateCoalesce) — the sessionize hot
	// path's batching lever.
	StateCoalesce bool
}

// withDefaults fills the zero fields.
func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Mapping == "" {
		c.Mapping = "dyn_redis"
	}
	if c.Workload == "" {
		c.Workload = "session"
	}
	if c.Processes <= 0 {
		c.Processes = 8
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Users <= 0 {
		c.Users = 100_000
	}
	if c.Skew == 0 {
		c.Skew = 1.1
	}
	if c.LatencyBound <= 0 {
		c.LatencyBound = time.Second
	}
	return c
}

// OpenLoopPoint is the measured result of one open-loop run.
type OpenLoopPoint struct {
	// Workload, Mapping, Processes identify the configuration.
	Workload  string
	Mapping   string
	Processes int
	// TargetRate is the configured arrival rate; OfferedRate is what the
	// pacer actually achieved (it falls below target when emission itself
	// backpressures — already a sign the rate is past the wall).
	TargetRate  float64
	OfferedRate float64
	// DeliveredRate is end-to-end throughput: delivered / (generation +
	// drain time).
	DeliveredRate float64
	// Offered and Delivered count events in and updates out.
	Offered   int64
	Delivered int64
	// GenSeconds is the time the source spent offering load; DrainSeconds is
	// how long past generation the run needed to finish what was in flight.
	GenSeconds   float64
	DrainSeconds float64
	// P50/P99/Max are exact-sample emission→delivery latencies.
	P50 time.Duration
	P99 time.Duration
	Max time.Duration
	// Sustainable: the pacer held ≥95% of the target rate, p99 stayed under
	// the latency bound, and the backlog at end-of-generation drained in
	// ≤ max(duration/10, 1s) — i.e. the system was keeping up, not queueing.
	Sustainable bool
	// Verdict is the bottleneck attribution after this run, when the runner
	// carries a Diag. With a shared Diag the ledger accumulates across the
	// sweep, so each point's verdict reflects the ladder so far — dominated
	// by the current (highest-rate) run, which offers the most tasks.
	Verdict *diagnosis.Verdict `json:",omitempty"`
}

func (p OpenLoopPoint) String() string {
	return fmt.Sprintf("%-8s %-10s procs=%-3d target=%7.0f/s offered=%7.0f/s delivered=%7.0f/s p50=%-9v p99=%-9v drain=%5.2fs sustainable=%v",
		p.Workload, p.Mapping, p.Processes, p.TargetRate, p.OfferedRate, p.DeliveredRate, p.P50, p.P99, p.DrainSeconds, p.Sustainable)
}

// olCollector accumulates the open-loop measurements across workers. The
// mappings run workers as goroutines of this process, so a shared collector
// reaches every PE instance regardless of transport.
type olCollector struct {
	offered   atomic.Int64
	delivered atomic.Int64
	genStart  atomic.Int64 // UnixNano of first offered event
	genEnd    atomic.Int64 // UnixNano when the source stopped offering

	mu      sync.Mutex
	samples []int64 // emission→delivery latency, nanoseconds
}

func (c *olCollector) observe(lat int64) {
	c.delivered.Add(1)
	c.mu.Lock()
	c.samples = append(c.samples, lat)
	c.mu.Unlock()
}

// sorted returns the latency samples sorted ascending.
func (c *olCollector) sorted() []int64 {
	c.mu.Lock()
	out := make([]int64, len(c.samples))
	copy(out, c.samples)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func percentileNanos(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx])
}

// openLoopGraph builds source → sessionize → deliver. The source paces an
// absolute schedule (tick i fires at start + i·interval): when emission or
// scheduling falls behind it bursts to catch up rather than silently
// stretching the schedule, which is what makes the offered load open-loop.
func openLoopGraph(cfg OpenLoopConfig, col *olCollector) *graph.Graph {
	g := graph.New("openloop_" + cfg.Workload)
	g.Add(func() core.PE {
		return core.NewSource("events", func(ctx *core.Context) error {
			gen := synth.NewSessionGen(cfg.Seed, cfg.Users, cfg.Skew)
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			start := time.Now()
			col.genStart.Store(start.UnixNano())
			for i := 0; ; i++ {
				next := start.Add(time.Duration(i) * interval)
				now := time.Now()
				if now.Before(next) {
					time.Sleep(next.Sub(now))
					now = time.Now()
				}
				if now.Sub(start) >= cfg.Duration {
					break
				}
				ev := gen.Next()
				ev.At = time.Now().UnixNano()
				col.offered.Add(1)
				if err := ctx.EmitDefault(ev); err != nil {
					return err
				}
			}
			col.genEnd.Store(time.Now().UnixNano())
			return nil
		})
	})
	if cfg.Workload == "relay" {
		g.Add(func() core.PE {
			return core.NewMap("sessionize", func(ctx *core.Context, v any) (any, error) {
				ev, ok := v.(synth.SessionEvent)
				if !ok {
					return nil, fmt.Errorf("relay: unexpected payload %T", v)
				}
				return synth.SessionUpdate{User: ev.User, Count: 1, At: ev.At}, nil
			})
		})
	} else {
		g.Add(func() core.PE {
			return core.NewEach("sessionize", func(ctx *core.Context, v any) error {
				ev, ok := v.(synth.SessionEvent)
				if !ok {
					return fmt.Errorf("sessionize: unexpected payload %T", v)
				}
				n, err := ctx.State().AddInt(ev.User, 1)
				if err != nil {
					return err
				}
				return ctx.EmitDefault(synth.SessionUpdate{User: ev.User, Count: n, At: ev.At})
			})
		}).SetKeyedState()
	}
	g.Add(func() core.PE {
		return core.NewSink("deliver", func(ctx *core.Context, v any) error {
			u, ok := v.(synth.SessionUpdate)
			if !ok {
				return fmt.Errorf("deliver: unexpected payload %T", v)
			}
			col.observe(time.Now().UnixNano() - u.At)
			return nil
		})
	})
	events := g.Pipe("events", "sessionize")
	if cfg.Workload != "relay" {
		// Managed keyed state requires key-affine routing: all of one user's
		// events land on the same sessionize instance.
		events.SetGrouping(graph.GroupByKey(func(v any) string { return v.(synth.SessionEvent).User }))
	}
	g.Pipe("sessionize", "deliver")
	return g
}

// RunOpenLoop executes one open-loop run and reduces it to a point.
func (r *Runner) RunOpenLoop(cfg OpenLoopConfig) (OpenLoopPoint, error) {
	cfg = cfg.withDefaults()
	m, err := mapping.Get(cfg.Mapping)
	if err != nil {
		return OpenLoopPoint{}, err
	}
	col := &olCollector{}
	g := openLoopGraph(cfg, col)
	opts := mapping.Options{
		Processes:     cfg.Processes,
		Platform:      platform.Server,
		Seed:          cfg.Seed,
		Telemetry:     r.Telemetry,
		Diagnosis:     r.Diag,
		StateCoalesce: cfg.StateCoalesce,
	}
	if needsRedis(cfg.Mapping) {
		addrs, err := r.redisAddrs()
		if err != nil {
			return OpenLoopPoint{}, fmt.Errorf("openloop: start redis: %w", err)
		}
		opts.RedisAddrs = addrs
	}
	if _, err := m.Execute(g, opts); err != nil {
		return OpenLoopPoint{}, fmt.Errorf("openloop %s %s @%.0f/s: %w", cfg.Workload, cfg.Mapping, cfg.Rate, err)
	}
	wallEnd := time.Now()

	p := OpenLoopPoint{
		Workload:   cfg.Workload,
		Mapping:    cfg.Mapping,
		Processes:  cfg.Processes,
		TargetRate: cfg.Rate,
		Offered:    col.offered.Load(),
		Delivered:  col.delivered.Load(),
	}
	genStart, genEnd := col.genStart.Load(), col.genEnd.Load()
	if genEnd > genStart && genStart > 0 {
		p.GenSeconds = time.Duration(genEnd - genStart).Seconds()
		p.DrainSeconds = wallEnd.Sub(time.Unix(0, genEnd)).Seconds()
	}
	if p.GenSeconds > 0 {
		p.OfferedRate = float64(p.Offered) / p.GenSeconds
	}
	if total := p.GenSeconds + p.DrainSeconds; total > 0 {
		p.DeliveredRate = float64(p.Delivered) / total
	}
	samples := col.sorted()
	p.P50 = percentileNanos(samples, 0.50)
	p.P99 = percentileNanos(samples, 0.99)
	p.Max = percentileNanos(samples, 1.0)

	drainBudget := (cfg.Duration / 10).Seconds()
	if drainBudget < 1 {
		drainBudget = 1
	}
	p.Sustainable = p.OfferedRate >= 0.95*cfg.Rate &&
		p.P99 > 0 && p.P99 <= cfg.LatencyBound &&
		p.DrainSeconds <= drainBudget
	if r.Diag != nil {
		v := r.Diag.Diagnose(r.Telemetry).Verdict
		p.Verdict = &v
	}
	r.printf("  %s\n", p)
	return p, nil
}

// OpenLoopSweep climbs a rate ladder and reports every measured point plus
// the highest sustainable rate. The climb stops at the first unsustainable
// rate — past the wall every higher rate only queues harder (and takes
// proportionally longer to drain), so the remaining ladder carries no
// information worth its wall-clock.
func (r *Runner) OpenLoopSweep(base OpenLoopConfig, rates []float64) ([]OpenLoopPoint, float64, error) {
	var pts []OpenLoopPoint
	max := 0.0
	for _, rate := range rates {
		cfg := base
		cfg.Rate = rate
		p, err := r.RunOpenLoop(cfg)
		if err != nil {
			return pts, max, err
		}
		pts = append(pts, p)
		if !p.Sustainable {
			break
		}
		if rate > max {
			max = rate
		}
	}
	return pts, max, nil
}

// RenderOpenLoop formats points as an aligned table.
func RenderOpenLoop(title string, pts []OpenLoopPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %-10s %-6s %-9s %-9s %-11s %-10s %-10s %-10s %-8s %s\n",
		"workload", "mapping", "procs", "target/s", "offered/s", "delivered/s", "p50", "p99", "max", "drain_s", "sustainable")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8s %-10s %-6d %-9.0f %-9.0f %-11.0f %-10v %-10v %-10v %-8.2f %v\n",
			p.Workload, p.Mapping, p.Processes, p.TargetRate, p.OfferedRate, p.DeliveredRate, p.P50, p.P99, p.Max, p.DrainSeconds, p.Sustainable)
	}
	return b.String()
}

// OpenLoopCSV renders points as CSV.
func OpenLoopCSV(pts []OpenLoopPoint) string {
	var b strings.Builder
	b.WriteString("workload,mapping,processes,target_rate,offered_rate,delivered_rate,offered,delivered,gen_seconds,drain_seconds,p50_ms,p99_ms,max_ms,sustainable,bottleneck,stage\n")
	for _, p := range pts {
		bn, stage := "", ""
		if p.Verdict != nil {
			bn, stage = p.Verdict.Bottleneck, p.Verdict.Stage
		}
		fmt.Fprintf(&b, "%s,%s,%d,%.0f,%.2f,%.2f,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%v,%s,%s\n",
			p.Workload, p.Mapping, p.Processes, p.TargetRate, p.OfferedRate, p.DeliveredRate,
			p.Offered, p.Delivered, p.GenSeconds, p.DrainSeconds,
			float64(p.P50)/1e6, float64(p.P99)/1e6, float64(p.Max)/1e6, p.Sustainable, bn, stage)
	}
	return b.String()
}
