package runtime

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// ownRun executes g on a Redis pool plan of procs workers over one embedded
// server, as dyn_redis does, and returns the transport for inspection.
// backend, when non-nil, holds the managed state instead of the run's own
// server; opt, when non-nil, adjusts the options and config before the run.
func ownRun(t *testing.T, g *graph.Graph, procs int, backend state.Backend, opt func(*mapping.Options, *Config)) (*RedisTransport, error) {
	t.Helper()
	return ownRunOn(t, ownCluster(t, nil), g, procs, backend, opt)
}

// ownCluster starts one embedded server and a cluster over it whose client
// dials through dial, when non-nil.
func ownCluster(t *testing.T, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) *redisclient.Cluster {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.Shard(0).Dialer = dial
	return cluster
}

// ownRunOn is ownRun on a given cluster.
func ownRunOn(t *testing.T, cluster *redisclient.Cluster, g *graph.Graph, procs int, backend state.Backend, opt func(*mapping.Options, *Config)) (*RedisTransport, error) {
	t.Helper()
	plan := PoolPlan(g, procs)
	keys := NewRunKeys(g.Name, 1)
	tr, err := NewRedisTransport(cluster, keys, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Cleanup(g) })
	opts := mapping.Options{Processes: procs, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1,
		ExactlyOnceState: true, StateBackend: backend}
	cfg := Config{Name: "own_redis", Plan: plan, Transport: tr, Host: platform.NewHost(opts.Platform),
		NewStateBackend:  func() state.Backend { return state.NewRedisClusterBackend(cluster, keys.Prefix+":state") },
		AdaptiveBatching: true}
	if opt != nil {
		opt(&opts, &cfg)
	}
	_, err = Execute(g, opts, cfg)
	return tr, err
}

// countGraph is gen → count over n values of ten keys, grouped by key: count
// hands each key to write, and shape adjusts the graph.
func countGraph(n int, write func(ctx *core.Context, key string) error, shape func(g *graph.Graph)) *graph.Graph {
	g := graph.New("owned")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(fmt.Sprintf("k%d", i%10)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewEach("count", func(ctx *core.Context, v any) error { return write(ctx, v.(string)) })
	}).SetKeyedState()
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(string) }))
	if shape != nil {
		shape(g)
	}
	return g
}

// keyTotals builds a graph around add, which counts a key in the owned
// PE's state, runs it — under simple when run is nil — and returns each
// key's highest running count, sorted.
func keyTotals(t *testing.T, build func(add func(ctx *core.Context, key string) error) *graph.Graph, run func(g *graph.Graph) error) string {
	t.Helper()
	var mu sync.Mutex
	top := map[string]int64{}
	add := func(ctx *core.Context, key string) error {
		n, err := ctx.State().AddInt(key, 1)
		mu.Lock()
		top[key] = max(top[key], n)
		mu.Unlock()
		return err
	}
	if run == nil {
		run = func(g *graph.Graph) error {
			simple, err := mapping.Get("simple")
			if err == nil {
				_, err = simple.Execute(g, mapping.Options{Processes: 1, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1})
			}
			return err
		}
	}
	if err := run(build(add)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k, n := range top {
		got = append(got, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(got)
	return strings.Join(got, " ")
}

// TestOwnershipContract: a keyed-state PE behind group-by edges, whose state
// lives on the transport's own server, is owned; an op of an owned PE outside
// its task's partition fails the run, naming the PE and the key; and every
// other managed-state shape keeps the per-op backend path.
func TestOwnershipContract(t *testing.T) {
	add := func(ctx *core.Context, key string) error {
		_, err := ctx.State().AddInt(key, 1)
		return err
	}
	otherServer := func(t *testing.T) state.Backend {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		b, err := state.DialRedisClusterBackend([]string{srv.Addr()}, "elsewhere")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	for _, tc := range []struct {
		name    string
		shape   func(g *graph.Graph)
		backend func(t *testing.T) state.Backend
		owned   bool
	}{
		{name: "keyed behind group-by", owned: true},
		{name: "keyed behind a shuffle edge", shape: func(g *graph.Graph) {
			g.InEdges("count")[0].SetGrouping(graph.Grouping{})
		}},
		{name: "singleton state", shape: func(g *graph.Graph) { g.Node("count").SetSingletonState() }},
		{name: "state on another server", backend: otherServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var backend state.Backend
			if tc.backend != nil {
				backend = tc.backend(t)
			}
			tr, err := ownRun(t, countGraph(200, add, tc.shape), 3, backend, nil)
			if err != nil {
				t.Fatal(err)
			}
			if owned := len(tr.owned) == 1; owned != tc.owned {
				t.Fatalf("count owned = %v, want %v", owned, tc.owned)
			}
		})
	}

	t.Run("a key outside the task's partition", func(t *testing.T) {
		// The PE swallows the op's error: the run must fail anyway.
		stray := func(ctx *core.Context, key string) error {
			_, _ = ctx.State().AddInt(key+"/stray", 1)
			return nil
		}
		_, err := ownRun(t, countGraph(200, stray, nil), 2, nil, nil)
		if err == nil {
			t.Fatal("the run succeeded with an owned PE writing outside its partition")
		}
		if msg := err.Error(); !strings.Contains(msg, "PE count") || !strings.Contains(msg, "/stray") {
			t.Fatalf("error %q names neither the PE nor the key", msg)
		}
	})
}

// TestGenerateHoldsNoLease: a worker commits and releases its leases before it
// runs a source's Generate. With one worker and two sources, the second
// Generate runs on a worker that took the leases since the first.
func TestGenerateHoldsNoLease(t *testing.T) {
	var mu sync.Mutex
	var tr *RedisTransport
	var held []int     // leases the worker held as each Generate began
	var earlier []bool // whether any partition had had a holder by then
	gen := func(name string) func() core.PE {
		return func() core.PE {
			return core.NewSource(name, func(ctx *core.Context) error {
				mu.Lock()
				ps := tr.owned[0]
				held = append(held, len(ps.Held(ctx.Instance())))
				used := false
				for p := range ps.used {
					used = used || ps.used[p].Load()
				}
				earlier = append(earlier, used)
				mu.Unlock()
				for i := 0; i < 40; i++ {
					if err := ctx.EmitDefault(fmt.Sprintf("%s-%d", name, i%5)); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	g := graph.New("genlease")
	g.Add(gen("gen1"))
	g.Add(gen("gen2"))
	g.Add(func() core.PE {
		return core.NewSink("count", func(ctx *core.Context, v any) error {
			_, err := ctx.State().AddInt(v.(string), 1)
			return err
		})
	}).SetKeyedState()
	byKey := graph.GroupByKey(func(v any) string { return v.(string) })
	g.Pipe("gen1", "count").SetGrouping(byKey)
	g.Pipe("gen2", "count").SetGrouping(byKey)

	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	plan := PoolPlan(g, 1)
	keys := NewRunKeys(g.Name, 1)
	tr, err = NewRedisTransport(cluster, keys, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Cleanup(g)
	opts := mapping.Options{Processes: 1, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1, ExactlyOnceState: true}
	backend := state.NewRedisClusterBackend(cluster, keys.Prefix+":state")
	if _, err := Execute(g, opts, Config{Name: "own_redis", Plan: plan, Transport: tr, Host: platform.NewHost(opts.Platform),
		NewStateBackend: func() state.Backend { return backend }, AdaptiveBatching: true}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(held) != 2 {
		t.Fatalf("%d Generate calls, want 2", len(held))
	}
	for i, n := range held {
		if n != 0 {
			t.Errorf("Generate %d began with %d leases held", i, n)
		}
	}
	if !earlier[1] {
		t.Error("no partition had a holder before the second Generate: the test exercised nothing")
	}
}

// TestOwnedCountsMatchSimple: an owned keyed count lands the same totals as
// the simple mapping, at every pool size the quota spreads leases over.
func TestOwnedCountsMatchSimple(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dprocs", procs), func(t *testing.T) {
			got := keyTotals(t, func(add func(ctx *core.Context, key string) error) *graph.Graph { return countGraph(1000, add, nil) },
				func(g *graph.Graph) error {
					_, err := ownRun(t, g, procs, nil, nil)
					return err
				})
			want := "k0=100 k1=100 k2=100 k3=100 k4=100 k5=100 k6=100 k7=100 k8=100 k9=100"
			if got != want {
				t.Fatalf("running counts reached %s, want %s", got, want)
			}
		})
	}
}

// dupGenerate delivers the seeded generate task of source gen twice, as two
// stream entries, the way a redelivery would: two executions of one
// provenance.
type dupGenerate struct{ *RedisTransport }

func (d dupGenerate) Push(tasks ...Task) error {
	if len(tasks) == 1 && tasks[0].PE == "gen" && tasks[0].Port == "" && !tasks[0].Finalize {
		if err := d.RedisTransport.Push(tasks...); err != nil {
			return err
		}
	}
	return d.RedisTransport.Push(tasks...)
}

// TestOwnedMarksUnderInterleavedDuplicateExecution: one provenance reaches
// the owned partitions from two executions of its parent at once, whose
// emit windows interleave on the partition streams — the second starts
// late, the first stalls halfway and is overtaken. A partition's high-water
// mark must still run each task exactly once: every key's total equals
// simple's, and each of the n duplicates counts as one fence drop.
func TestOwnedMarksUnderInterleavedDuplicateExecution(t *testing.T) {
	const n = 300
	var started, overlapped atomic.Int32
	build := func(dup bool, add func(ctx *core.Context, key string) error) *graph.Graph {
		g := graph.New("owned")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				exec := int32(1)
				if dup {
					exec = started.Add(1)
					for deadline := time.Now().Add(5 * time.Second); started.Load() < 2 && time.Now().Before(deadline); {
						time.Sleep(100 * time.Microsecond)
					}
					if started.Load() == 2 {
						overlapped.Add(1)
					}
					if exec == 2 {
						time.Sleep(5 * time.Millisecond)
					}
				}
				for i := 0; i < n; i++ {
					if dup && exec == 1 && i == n/2 {
						time.Sleep(30 * time.Millisecond)
					}
					if dup {
						time.Sleep(100 * time.Microsecond)
					}
					if err := ctx.EmitDefault(fmt.Sprintf("k%d", i%10)); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewEach("count", func(ctx *core.Context, v any) error { return add(ctx, v.(string)) })
		}).SetKeyedState()
		g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(string) }))
		return g
	}
	want := keyTotals(t, func(add func(ctx *core.Context, key string) error) *graph.Graph { return build(false, add) }, nil)

	reg := telemetry.New(telemetry.Config{TraceSampleEvery: -1})
	got := keyTotals(t, func(add func(ctx *core.Context, key string) error) *graph.Graph { return build(true, add) }, func(g *graph.Graph) error {
		_, err := ownRun(t, g, 3, nil, func(o *mapping.Options, c *Config) {
			o.Telemetry = reg
			c.Transport = dupGenerate{c.Transport.(*RedisTransport)}
		})
		return err
	})
	if overlapped.Load() != 2 {
		t.Fatalf("the two executions of the generate task did not overlap (%d of 2 saw both running)", overlapped.Load())
	}
	if got != want {
		t.Fatalf("totals under interleaved duplicate execution:\n got %s\nwant %s", got, want)
	}
	if drops := reg.Snapshot().State.FenceDrops; drops != n {
		t.Fatalf("%d fence drops, want one per duplicate delivery, %d", drops, n)
	}
}

// ledgerCountPE counts each key and, in its Final, hands the count of ledger
// fields in its namespace to fields.
type ledgerCountPE struct {
	core.Base
	fields func() error
}

func (p *ledgerCountPE) Process(ctx *core.Context, _ string, v any) error {
	_, err := ctx.State().AddInt(v.(string), 1)
	return err
}

func (p *ledgerCountPE) Final(*core.Context) error { return p.fields() }

// TestOwnedLedgerPlateaus: a fenced owned count keeps one mark per
// (partition, provenance) and the partition count, not a field per task, so
// when one parent emits every task — here the source's generate task, the
// one provenance — runs over N and 4N events leave the same number of
// ledger fields in the namespace, at most P × 1 + 1, when every task has run
// (the PE's Final). A per-event parent would leave a mark per task.
func TestOwnedLedgerPlateaus(t *testing.T) {
	const procs = 2
	fields := func(n int) int {
		var tr *RedisTransport
		var count int
		g := graph.New("owned")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < n; i++ {
					if err := ctx.EmitDefault(fmt.Sprintf("k%d", i%10)); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return &ledgerCountPE{Base: core.NewBase("count", core.In(), nil), fields: func() error {
				ps := tr.owned[0]
				all, err := ps.cl.HGetAll(ps.home)
				for k := range all {
					if state.IsFenceKey(k) {
						count++
					}
				}
				return err
			}}
		}).SetKeyedState()
		g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(string) }))
		if _, err := ownRun(t, g, procs, nil, func(_ *mapping.Options, c *Config) { tr = c.Transport.(*RedisTransport) }); err != nil {
			t.Fatal(err)
		}
		if len(tr.owned) != 1 {
			t.Fatal("count is not owned")
		}
		return count
	}
	small, large := fields(500), fields(2000)
	if bound := partsPerWorker*procs*1 + 1; small < 2 || small > bound || large != small {
		t.Fatalf("ledger fields: %d after 500 events, %d after 2000; want the same number, 2 to %d", small, large, bound)
	}
}

// staleHolder stalls the first read of a worker that holds partitions of the
// owned PE once the source has paused halfway, after the worker's lease step
// and before its read, until another worker has taken every one of those
// leases over. It then holds every other worker's pulls back, lets the
// source emit its second half onto the partitions, and only then sends the
// stalled worker's read, one entry per stream, with the leases the worker
// still believes it holds. The other workers' pulls resume once that read
// has returned.
type staleHolder struct {
	*RedisTransport
	paused   atomic.Bool   // the source has emitted its first half
	resume   chan struct{} // closed: the source emits its second half
	released chan struct{} // closed: the stale read has returned
	n        int           // tasks the source emits
	pushed   atomic.Int64  // of those, pushed so far
	stalled  atomic.Bool
	gated    atomic.Bool
	inFlight atomic.Int32 // other workers' pulls under way
	diag     *diagnosis.Diag
	tookOver atomic.Bool  // no stalled lease was the worker's before the read, and the journal shows a takeover
	stolen   atomic.Int64 // deliveries of the stalled partitions the stale read returned
}

func (s *staleHolder) Push(tasks ...Task) error {
	err := s.RedisTransport.Push(tasks...)
	for _, t := range tasks {
		if t.PE == "count" {
			s.pushed.Add(1)
		}
	}
	return err
}

func (s *staleHolder) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	// A pull that would hand out entries adopted with a lease reads nothing.
	if s.paused.Load() && len(s.owned[0].Held(w)) > 0 && len(s.claimed[w]) == 0 && s.stalled.CompareAndSwap(false, true) {
		return s.staleRead(w, timeout)
	}
	s.inFlight.Add(1)
	if s.gated.Load() {
		s.inFlight.Add(-1)
		<-s.released
		s.inFlight.Add(1)
	}
	defer s.inFlight.Add(-1)
	return s.RedisTransport.PullBatch(w, max, timeout)
}

// pause, called halfway by the generate task running on worker w (its
// context's instance), waits for the stale read to be set up, heartbeating
// the task's entry so that no other worker reclaims it meanwhile.
func (s *staleHolder) pause(w int) error {
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-s.resume:
			return nil
		case <-deadline:
			return fmt.Errorf("no holder stalled")
		case <-time.After(time.Millisecond):
			if err := s.Extend(w); err != nil {
				return err
			}
		}
	}
}

func (s *staleHolder) staleRead(w int, timeout time.Duration) ([]Env, error) {
	defer close(s.released)
	ps := s.owned[0]
	toks := map[int]string{}
	for _, p := range ps.Held(w) {
		toks[p] = ps.held[w][p]
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.tookOver.Load() && time.Now().Before(deadline) {
		gone := true
		for p, tok := range toks {
			v, _, err := ps.cl.Get(ps.leases[p])
			if err != nil {
				return nil, err
			}
			gone = gone && v != tok
		}
		taken := false
		for _, ev := range s.diag.Journal.Events() {
			taken = taken || ev.Kind == diagnosis.EvPartition && strings.Contains(ev.Detail, "took over")
		}
		s.tookOver.Store(gone && taken)
		time.Sleep(time.Millisecond)
	}
	s.gated.Store(true)
	for s.inFlight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(s.resume)
	for s.pushed.Load() < int64(s.n) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	swept := s.reclaims(w)
	envs, err := s.RedisTransport.PullBatch(w, 1, timeout)
	if s.reclaims(w) > swept {
		// The read found nothing, and the idle sweep took back entries the
		// new holder had already been delivered.
		return envs, err
	}
	for _, env := range envs {
		if _, ok := toks[env.Instance]; ok && env.PE == "count" {
			s.stolen.Add(1)
		}
	}
	return envs, err
}

// reclaims counts the idle sweeps of worker w that took entries.
func (s *staleHolder) reclaims(w int) int {
	n := 0
	for _, ev := range s.diag.Journal.Events() {
		if ev.Kind == diagnosis.EvReclaim && ev.Worker == w {
			n++
		}
	}
	return n
}

// TestStaleHolderReadsNothingAfterTakeover stalls a partition holder between
// its lease step and its read for longer than the lease's TTL, until another
// worker has taken its partitions over, and has the source emit more tasks
// onto them before the stale read is sent. One provenance (the generate
// task) feeds every partition. The read must not deliver the partitions'
// new entries to the stale holder — they would reach the new holder only
// after later ones had raised its mark past them, and run as replays — so
// every key's total equals simple's.
func TestStaleHolderReadsNothingAfterTakeover(t *testing.T) {
	const n = 1200
	var st *staleHolder
	build := func(add func(ctx *core.Context, key string) error) *graph.Graph {
		g := graph.New("owned")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < n; i++ {
					// Only the first execution to get here pauses: a rerun of
					// the task, reclaimed from a worker that stalled before
					// its first heartbeat, runs through.
					if i == n/2 && st != nil && st.paused.CompareAndSwap(false, true) {
						if err := st.pause(ctx.Instance()); err != nil {
							return err
						}
					}
					if err := ctx.EmitDefault(fmt.Sprintf("k%d", i%40)); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewEach("count", func(ctx *core.Context, v any) error { return add(ctx, v.(string)) })
		}).SetKeyedState()
		g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(string) }))
		return g
	}
	want := keyTotals(t, build, nil)

	got := keyTotals(t, build, func(g *graph.Graph) error {
		_, err := ownRun(t, g, 3, nil, func(o *mapping.Options, c *Config) {
			tr := c.Transport.(*RedisTransport)
			stale, err := NewRedisTransport(tr.cluster, tr.keys, tr.plan, true)
			if err != nil {
				t.Fatal(err)
			}
			o.RecoverStale = true
			o.Diagnosis = diagnosis.New(diagnosis.Config{})
			stale.SetDiagnosis(o.Diagnosis)
			st = &staleHolder{RedisTransport: stale, diag: o.Diagnosis, n: n, resume: make(chan struct{}), released: make(chan struct{})}
			c.Transport = st
		})
		return err
	})
	if !st.tookOver.Load() {
		t.Fatal("no takeover freed every lease of the stalled holder")
	}
	if k := st.stolen.Load(); k != 0 {
		t.Errorf("the stale read delivered %d tasks of partitions whose leases were taken", k)
	}
	if got != want {
		t.Fatalf("totals after a stale holder's read:\n got %s\nwant %s", got, want)
	}
}

// wireCounter dials TCP and counts, in what its connections write, the
// commands that read a hash field (HGET, on its own or as a lease read's
// sub-command) and the lease-checked blocks (SINKAPPEND).
type wireCounter struct{ hgets, sinkAppends atomic.Int64 }

func (c *wireCounter) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: nc, c: c}, nil
}

type countedConn struct {
	net.Conn
	c *wireCounter
}

func (cc *countedConn) Write(b []byte) (int, error) {
	cc.c.hgets.Add(int64(bytes.Count(b, []byte("$4\r\nHGET\r\n"))))
	cc.c.sinkAppends.Add(int64(bytes.Count(b, []byte("$10\r\nSINKAPPEND\r\n"))))
	return cc.Conn.Write(b)
}

// TestFreshOwnedRunReadsNoLease: on a fresh run a partition's first holder
// holds all of its state, so a fenced owned count whose leases never move
// (one worker) reads no key and no mark from its namespace — no lease read,
// no backend Get — and still lands simple's totals.
func TestFreshOwnedRunReadsNoLease(t *testing.T) {
	build := func(add func(ctx *core.Context, key string) error) *graph.Graph { return countGraph(1000, add, nil) }
	want := keyTotals(t, build, nil)

	var wire wireCounter
	var tr *RedisTransport
	got := keyTotals(t, build, func(g *graph.Graph) error {
		var err error
		tr, err = ownRunOn(t, ownCluster(t, wire.dial), g, 1, nil, nil)
		return err
	})
	if len(tr.owned) != 1 || wire.sinkAppends.Load() == 0 {
		t.Fatalf("count owned %v, %d lease-checked blocks sent: the owned path did not run", len(tr.owned) == 1, wire.sinkAppends.Load())
	}
	if n := wire.hgets.Load(); n != 0 {
		t.Errorf("a fresh run with no lease movement sent %d hash reads, want 0", n)
	}
	if got != want {
		t.Fatalf("totals:\n got %s\nwant %s", got, want)
	}
}

// markReplay remembers the first task pushed to the owned PE count, so that
// it can be delivered again later (again).
type markReplay struct {
	*RedisTransport
	mu    sync.Mutex
	first *Task
}

func (m *markReplay) Push(tasks ...Task) error {
	m.mu.Lock()
	for _, t := range tasks {
		if t.PE == "count" && m.first == nil {
			m.first = &t
		}
	}
	m.mu.Unlock()
	return m.RedisTransport.Push(tasks...)
}

func (m *markReplay) again() error {
	m.mu.Lock()
	t := *m.first
	m.mu.Unlock()
	return m.RedisTransport.Push(t)
}

// TestForgottenMarkIsLoadedAgain: a fenced owned count fed by a per-event
// upstream PE meets one provenance per task, so its one hot partition passes
// markCache marks and a commit forgets them. The partition began complete,
// with its first holder; an early provenance delivered again after the
// forget must still load its mark and run as a replay — one fence drop, the
// key's total unchanged — not find it absent and count twice.
func TestForgottenMarkIsLoadedAgain(t *testing.T) {
	const n = 1024 + 100 // past the 1,024 marks a partition keeps (state.markCache)
	var mr *markReplay
	var ran, top atomic.Int64 // count's executions, replays included; the key's highest total
	wait := func(k int64) error {
		for deadline := time.Now().Add(10 * time.Second); ran.Load() < k; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("count ran %d times, want %d", ran.Load(), k)
			}
		}
		return nil
	}
	g := graph.New("owned")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			// One more task, so that the commit that forgot the marks has
			// landed before the early task comes again.
			if err := wait(n); err != nil {
				return err
			}
			if err := ctx.EmitDefault(n); err != nil {
				return err
			}
			if err := wait(n + 1); err != nil {
				return err
			}
			if err := mr.again(); err != nil {
				return err
			}
			return wait(n + 2)
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("relay", func(_ *core.Context, v any) (any, error) { return v, nil })
	})
	g.Add(func() core.PE {
		return core.NewEach("count", func(ctx *core.Context, _ any) error {
			ran.Add(1)
			k, err := ctx.State().AddInt("k", 1)
			for cur := top.Load(); k > cur && !top.CompareAndSwap(cur, k); cur = top.Load() {
			}
			return err
		})
	}).SetKeyedState()
	g.Pipe("gen", "relay")
	g.Pipe("relay", "count").SetGrouping(graph.GroupByKey(func(any) string { return "k" }))

	reg := telemetry.New(telemetry.Config{TraceSampleEvery: -1})
	tr, err := ownRun(t, g, 2, nil, func(o *mapping.Options, c *Config) {
		o.Telemetry = reg
		c.AdaptiveBatching = false // every emission is pushed at once
		mr = &markReplay{RedisTransport: c.Transport.(*RedisTransport)}
		c.Transport = mr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.owned) != 1 {
		t.Fatal("count is not owned")
	}
	if drops, k := reg.Snapshot().State.FenceDrops, top.Load(); drops != 1 || k != n+1 {
		t.Fatalf("the early task delivered again: %d fence drops, total %d; want 1 drop and total %d", drops, k, n+1)
	}
}

// renewStall stalls, once, the heartbeat of a worker that holds partitions
// of the owned PE until other workers have taken every one of those leases
// over (the in-process holder view shows another worker's, or none), so
// that the heartbeat's renewal finds them lost. It records whether
// the renewal ended those holdings and whether the worker's next pull found
// them drained, that is, their tables dropped by the refill's lease step.
type renewStall struct {
	*RedisTransport
	stalled atomic.Int32 // the stalled worker, plus one
	ended   atomic.Bool  // the renewal found every stalled lease taken and ended its holding
	checked atomic.Bool  // the stalled worker pulled again since
	drained atomic.Bool  // and that pull found no ended holding left undrained
}

func (s *renewStall) Extend(w int) error {
	ps := s.owned[0]
	if len(ps.Held(w)) == 0 || !s.stalled.CompareAndSwap(0, int32(w)+1) {
		return s.RedisTransport.Extend(w)
	}
	held := slices.Clone(ps.Held(w))
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		taken := true
		for _, p := range held {
			taken = taken && ps.holder[p].Load() != int32(w)+1
		}
		if taken {
			break
		}
	}
	err := s.RedisTransport.Extend(w)
	s.ended.Store(len(ps.Held(w)) == 0 && len(ps.ended[w]) >= len(held))
	return err
}

func (s *renewStall) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	if s.stalled.Load() == int32(w)+1 && s.ended.Load() && s.checked.CompareAndSwap(false, true) {
		s.drained.Store(len(s.owned[0].ended[w]) == 0)
	}
	return s.RedisTransport.PullBatch(w, max, timeout)
}

// TestRenewalFindsLeaseLost stalls a partition holder's heartbeat, before a
// task of its window, until other workers have taken its expired leases
// over. The heartbeat's renewal must end those holdings, as a commit that
// finds its lease lost does: the rest of the window does not run on them,
// their tables are dropped by the worker's next refill, and every key's
// total equals simple's.
func TestRenewalFindsLeaseLost(t *testing.T) {
	build := func(add func(ctx *core.Context, key string) error) *graph.Graph { return countGraph(1200, add, nil) }
	want := keyTotals(t, build, nil)

	var st *renewStall
	got := keyTotals(t, build, func(g *graph.Graph) error {
		_, err := ownRun(t, g, 3, nil, func(o *mapping.Options, c *Config) {
			tr := c.Transport.(*RedisTransport)
			stale, err := NewRedisTransport(tr.cluster, tr.keys, tr.plan, true)
			if err != nil {
				t.Fatal(err)
			}
			o.RecoverStale = true
			st = &renewStall{RedisTransport: stale}
			c.Transport = st
		})
		return err
	})
	if !st.ended.Load() {
		t.Fatal("the stalled heartbeat's renewal did not end the holdings whose leases were taken")
	}
	if !st.drained.Load() {
		t.Error("the stalled worker pulled again with ended holdings whose tables were not dropped")
	}
	if got != want {
		t.Fatalf("totals after a renewal found leases lost:\n got %s\nwant %s", got, want)
	}
}

// TestReclaimedPartitionStartsEmpty: a worker that gives its partitions up
// and takes them again in one refill — as a worker the auto-scaler parks
// and readmits at once does — starts each from an empty table, and a later
// refill does not drop what the table has loaded since.
func TestReclaimedPartitionStartsEmpty(t *testing.T) {
	g := countGraph(0, nil, nil)
	cluster := ownCluster(t, nil)
	plan := PoolPlan(g, 1)
	tr, err := NewRedisTransport(cluster, NewRunKeys(g.Name, 1), plan, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Cleanup(g) })
	ps, err := tr.Partition(PartitionSpec{PE: "count", Parts: 2, HomeKey: "ns:{owned}", Home: cluster.Shard(0).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: Config{Plan: plan}, owned: []*ownedPE{{ps: ps}}}
	r.holders.Store(1)
	wk := &worker{r: r, spec: plan.Workers[0], pulled: true}
	wk.initOwn()
	s := wk.own[0]
	lacks := func() bool { return len(s.table.Missing([]string{"k"})) > 0 }
	if err := wk.lease(); err != nil {
		t.Fatal(err)
	}
	if len(ps.Held(0)) != 2 || lacks() {
		t.Fatalf("first holder: holds %v, lacks k %v; want both partitions, complete", ps.Held(0), lacks())
	}
	if err := wk.settle(true); err != nil { // the park gives every lease up
		t.Fatal(err)
	}
	if err := wk.lease(); err != nil { // the readmission takes them again
		t.Fatal(err)
	}
	if len(ps.Held(0)) != 2 || !lacks() {
		t.Fatalf("taken again: holds %v, lacks k %v; want both partitions, from an empty table", ps.Held(0), lacks())
	}
	s.table.Fill("k", "1", true)
	if err := wk.lease(); err != nil { // the next refill
		t.Fatal(err)
	}
	if lacks() {
		t.Fatal("the next refill dropped the table of a partition held since it was taken again")
	}
	// A window's commit is staged for the next pull, and a park releases
	// before that pull: the staged commit lands first, then every lease is
	// given up on the server, so the readmission can take them all again.
	s.table.Admit(0, state.Token{Src: 1, Seq: 1})
	if err := wk.settle(false); err != nil {
		t.Fatal(err)
	}
	if err := wk.settle(true); err != nil {
		t.Fatal(err)
	}
	if held := ps.Held(0); len(held) != 0 {
		t.Fatalf("after the park: holds %v, want none", held)
	}
	for _, key := range ps.leases {
		if v, err := ps.cl.Do("EXISTS", key); err != nil || v.Int != 0 {
			t.Fatalf("after the park: lease %s exists (%v, %v), want it deleted", key, v.Int, err)
		}
	}
	if err := wk.lease(); err != nil {
		t.Fatal(err)
	}
	if held := ps.Held(0); len(held) != 2 {
		t.Fatalf("readmitted after the park: holds %v, want both partitions", held)
	}
}
