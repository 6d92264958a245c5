package redismap_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/state"
)

// TestDynRedisRecoversAbandonedTask injects a failure: a rogue consumer
// joins the worker group as the run starts, steals a task from the stream
// and never acknowledges or processes it — the observable behaviour of a
// worker process that crashed mid-task. With RecoverStale the real worker
// must reclaim the pending entry via XAUTOCLAIM and finish the workflow
// completely.
//
// The theft is not a race. The run has one worker, and the source emits its
// first value and then waits inside Generate until the rogue reports the
// theft, so while the only worker is busy the rogue is the only reader of the
// stream: it takes either the seeded generate task (before the worker pulls
// it) or that first value.
func TestDynRedisRecoversAbandonedTask(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 15
	col := &collector{}
	stole := make(chan struct{}) // closed once the rogue holds a task
	var stolen string            // the stolen entry ID; written before stole closes
	g := graph.New("recovery")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 1; i <= n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
				if i == 1 {
					select {
					case <-stole:
					case <-time.After(5 * time.Second):
						return fmt.Errorf("rogue consumer reported no theft within 5s")
					}
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			col.add(int64(v.(int)))
			return nil
		})
	})
	g.Pipe("gen", "sink")

	opts := mapping.Options{
		Processes:    1,
		Platform:     platformForTest(),
		Seed:         77,
		RedisAddrs:   []string{srv.Addr()},
		RecoverStale: true,
	}

	// Execute creates the group before it seeds the stream and launches the
	// worker, so the rogue polls until the run's queue appears and then parks
	// in a blocking read, which the stream answers with the first entry no
	// other consumer has read.
	rogue := redisclient.Dial(srv.Addr())
	defer rogue.Close()
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			keysReply, err := rogue.Do("KEYS", "d4p:recovery:*:queue")
			if err != nil || len(keysReply.Array) == 0 {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			entries, err := rogue.XReadGroup("workers", "rogue", 1, 5*time.Second, keysReply.Array[0].Str)
			if err == nil && len(entries) == 1 {
				stolen = entries[0].ID
				close(stole)
			}
			return
		}
	}()

	m, _ := mapping.Get("dyn_redis")
	rep, err := m.Execute(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The run succeeding means the source saw the theft (it fails after 5s
	// otherwise); all n values must have reached the sink despite it: the
	// stolen task was reclaimed and re-executed by the live worker.
	<-stole
	_, count := col.snapshot()
	if count < n {
		t.Fatalf("sink saw %d values, want ≥ %d (stolen task %s not recovered)", count, n, stolen)
	}
	if rep.Tasks < n {
		t.Errorf("tasks=%d want ≥ %d", rep.Tasks, n)
	}
}

// TestDynRedisWithoutRecoveryDocumentsTheGap shows the inverse: with
// RecoverStale off, a stolen task stays pending forever, so the pending
// counter never reaches zero and the run would hang. We assert the
// precondition (pending stuck above zero) on a manually-constructed queue
// rather than hanging a full run.
func TestDynRedisWithoutRecoveryDocumentsTheGap(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()

	if err := cl.XGroupCreate("q", "workers", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XAddValues("q", "task", "payload"); err != nil {
		t.Fatal(err)
	}
	// Consumer reads and "dies".
	if _, err := cl.XReadGroup("workers", "dead", 1, 0, "q"); err != nil {
		t.Fatal(err)
	}
	// Without reclaim, nothing new is readable and the entry stays pending.
	entries, err := cl.XReadGroup("workers", "alive", 1, 0, "q")
	if err != nil || len(entries) != 0 {
		t.Fatalf("live consumer should see nothing new: %+v %v", entries, err)
	}
	pending, err := cl.XPendingIDs("q", "workers", "dead", 10)
	if err != nil || len(pending) != 1 {
		t.Fatalf("pending: %v %v", pending, err)
	}
	// With reclaim (what RecoverStale does), the live consumer gets it.
	_, claimed, err := cl.XAutoClaim("q", "workers", "alive", 0, "0-0", 10)
	if err != nil || len(claimed) != 1 {
		t.Fatalf("XAUTOCLAIM: %+v %v", claimed, err)
	}
}

func platformForTest() platform.Platform {
	return platform.Platform{Name: "test", Cores: 4}
}

// replayItem is the keyed payload of the exactly-once replay tests.
type replayItem struct {
	Key string
	Val int64
}

func init() { codec.Register(replayItem{}) }

// slowKeyedCountPE is a managed keyed aggregator that dawdles on every
// update, so its deliveries sit unacknowledged long enough for XAUTOCLAIM
// to hand them to a second worker while the first is still processing.
type slowKeyedCountPE struct {
	core.Base
	delay time.Duration
}

func (p *slowKeyedCountPE) Process(ctx *core.Context, port string, v any) error {
	it := v.(replayItem)
	time.Sleep(p.delay)
	_, err := ctx.State().AddInt(it.Key, it.Val)
	return err
}

func (p *slowKeyedCountPE) Final(ctx *core.Context) error {
	entries, err := state.SortedEntries(ctx.State())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := ctx.EmitDefault(e.Key + "=" + e.Value); err != nil {
			return err
		}
	}
	return nil
}

// replayAggGraph builds gen → slow keyed count (managed) → sink.
func replayAggGraph(items []replayItem, delay time.Duration, collect func(string)) *graph.Graph {
	g := graph.New("replayagg")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for _, it := range items {
				if err := ctx.EmitDefault(it); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return &slowKeyedCountPE{Base: core.NewBase("count", core.In(), core.Out()), delay: delay}
	}).SetKeyedState()
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			collect(v.(string))
			return nil
		})
	})
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(replayItem).Key }))
	g.Pipe("count", "sink")
	return g
}

// TestDynRedisExactlyOnceStateUnderLiveReplay runs a managed keyed
// aggregation through the real dyn_redis mapping with RecoverStale on: the
// 16 ms reclaim threshold and lease TTL span only four of the slow count
// PE's tasks, so a live worker that falls behind its heartbeat can lose a
// partition to another and both executions race — the seed's rejected
// combination, now the fenced path.
// The final aggregates must be byte-identical to an undisturbed sequential
// run: no double-applied updates, no lost updates, no early termination.
func TestDynRedisExactlyOnceStateUnderLiveReplay(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	items := make([]replayItem, 0, 40)
	for i := 0; i < 40; i++ {
		items = append(items, replayItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
	}

	run := func(name string, opts mapping.Options, delay time.Duration) []string {
		var mu sync.Mutex
		var got []string
		g := replayAggGraph(items, delay, func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(g, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Strings(got)
		return got
	}

	want := run("simple", mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 31}, 0)
	if len(want) != len(keys) {
		t.Fatalf("reference flush: %v", want)
	}

	opts := mapping.Options{
		Processes:    3,
		Platform:     platformForTest(),
		Seed:         31,
		RedisAddrs:   []string{srv.Addr()},
		RecoverStale: true, // implies ExactlyOnceState for the managed PE
	}
	got := run("dyn_redis", opts, 4*time.Millisecond)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("aggregates diverge under live replay:\n got %v\nwant %v", got, want)
	}
}

// TestDynRedisFencedFinalWithStateOnAnotherServer runs a fenced Final-bearing
// aggregation on dyn_redis whose managed state lives on a different server
// than the data plane. The Final's task gate is a ledger field of the state
// namespace, so it must be recorded there — never on the data plane, which a
// finished run leaves as empty as it found it — and the Final's output must
// still arrive exactly once.
func TestDynRedisFencedFinalWithStateOnAnotherServer(t *testing.T) {
	plane, stateSrv := startRedis(t), startRedis(t)
	backend, err := state.DialRedisClusterBackend([]string{stateSrv}, "elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	items := make([]replayItem, 0, 30)
	for i := 0; i < 30; i++ {
		items = append(items, replayItem{Key: fmt.Sprintf("k%d", i%4), Val: int64(i + 1)})
	}
	run := func(name string, opts mapping.Options) []string {
		var mu sync.Mutex
		var got []string
		g := replayAggGraph(items, 0, func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(g, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Strings(got)
		return got
	}
	want := run("simple", mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 7})
	got := run("dyn_redis", mapping.Options{
		Processes: 3, Platform: platformForTest(), Seed: 7,
		RedisAddrs: []string{plane}, StateBackend: backend, ExactlyOnceState: true,
	})
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("aggregates diverge with state on another server:\n got %v\nwant %v", got, want)
	}
	cl := redisclient.Dial(plane)
	defer cl.Close()
	if n, err := cl.DoInt("DBSIZE"); err != nil || n != 0 {
		t.Errorf("data plane holds %d keys after the run (%v), want 0: the task gate was recorded away from its state", n, err)
	}
}
