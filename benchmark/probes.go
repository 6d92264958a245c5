package main

import (
	"bytes"
	"fmt"
	"io"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/resp"
	rt "repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// A probe times calls into one layer's public functions from outside. The
// numbers are medians over sizing.probeSamples calls.

// timeEach returns the median duration in ns of n calls of fn.
func timeEach(n int, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	sort.Float64s(ds)
	return ds[n/2]
}

// timeInner is timeEach for calls too short to time singly: each sample is
// inner back-to-back calls, and the result is ns per call.
func timeInner(n, inner int, fn func()) float64 {
	return timeEach(n, func() {
		for i := 0; i < inner; i++ {
			fn()
		}
	}) / float64(inner)
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeTasks builds the 64-task frame the workload's first hop carries.
func (w *workload) probeTasks(seed int64) []codec.Task {
	tasks := make([]codec.Task, 64)
	if w.name == "galaxy_auto" {
		for i, g := range synth.GalaxyCatalog(seed, len(tasks)) {
			tasks[i] = codec.Task{PE: "getVOTable", Port: "in", Value: g, Instance: -1}
		}
		return tasks
	}
	gen := synth.NewSessionGen(seed, w.users, w.skew)
	for i := range tasks {
		tasks[i] = codec.Task{PE: "work", Port: "in", Value: gen.Next(), Instance: -1}
		if w.fenced {
			tasks[i].Src, tasks[i].Seq = 0x5eed, uint64(i+1)
		}
	}
	return tasks
}

// prober carries what the layer probes share: where results go, the sample
// count, the workload's 64-task frame, and the first error a probed call
// returned (probes run inside timing closures, so they record rather than
// return it).
type prober struct {
	o     *outcome
	vals  map[string]float64
	n     int
	tasks []codec.Task
	wire  string // tasks as one encoded frame
	err   error
}

func (p *prober) set(name string, v float64) {
	p.vals[name] = v
	p.o.set(perLayer, name, v)
}

func (p *prober) must(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func us(ns float64) float64 { return ns / 1e3 }

// probes measures every layer probe and stores the results in o. It returns
// the values the budget model reads.
func (w *workload) probes(o *outcome, seed int64, n int) (map[string]float64, error) {
	p := &prober{o: o, vals: map[string]float64{}, n: n, tasks: w.probeTasks(seed)}
	p.wireFormats()
	p.inProcess()

	shards := max(w.shards, 1)
	var addrs []string
	for i := 0; i < shards; i++ {
		srv := miniredis.NewServer(miniredis.Options{})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	cluster, err := redisclient.NewCluster(addrs)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	p.clientAndServer(cluster)
	p.redisTransport(cluster, seed)
	p.redisState(cluster)
	if p.err != nil {
		return nil, fmt.Errorf("probe: %w", p.err)
	}
	return p.vals, nil
}

// wireFormats probes codec and resp: one 64-task frame of the workload's
// payload, the XADD that carries it, and a 64-entry XREADGROUP reply.
func (p *prober) wireFormats() {
	var frame []byte
	encode := func() {
		var err error
		frame, err = codec.AppendBatch(frame[:0], p.tasks)
		p.must(err)
	}
	encode()
	p.wire = string(frame)
	decode := func() { _, err := codec.DecodeBatch(p.wire); p.must(err) }
	p.set("codec.encode_ns_per_task", timeEach(p.n, encode)/64)
	p.set("codec.decode_ns_per_task", timeEach(p.n, decode)/64)
	p.set("codec.encode_allocs_per_task", allocsPer(p.n, encode)/64)
	p.set("codec.decode_allocs_per_task", allocsPer(p.n, decode)/64)
	p.set("codec.bytes_per_task", float64(len(frame))/64)

	xadd := []string{"XADD", "d4p:probe:queue", "*", "task", p.wire}
	var count countWriter
	p.must(resp.NewWriter(&count).WriteCommand(xadd...))
	p.set("resp.wire_bytes_per_task", float64(count.n)/64)
	dw := resp.NewWriter(io.Discard)
	p.set("resp.write_cmd_ns", timeEach(p.n, func() { p.must(dw.WriteCommand(xadd...)) }))
	reply, err := recordedReadGroupReply(p.tasks)
	p.must(err)
	p.set("resp.read_reply_ns", timeEach(p.n, func() {
		_, err := resp.NewReader(bytes.NewReader(reply)).ReadValue()
		p.must(err)
	}))
}

// inProcess probes the layers that need no server: a hop through the
// in-process queue at the server platform's sync cost, the memory state
// backend, Host.Work and a histogram Observe.
func (p *prober) inProcess() {
	qt := rt.NewQueueTransport(rt.NewQueue(platform.Server.QueueOpCost))
	hop := func(batch []codec.Task) func() {
		return func() {
			p.must(qt.Push(batch...))
			envs, err := qt.PullBatch(0, len(batch), time.Millisecond)
			p.must(err)
			p.must(qt.Ack(0, envs...))
		}
	}
	p.set("runtime.queue_hop_ns_per_task", timeEach(p.n, hop(p.tasks[:1])))
	p.set("runtime.queue_hop64_ns_per_task", timeEach(p.n, hop(p.tasks))/64)

	mem, err := state.NewMemoryBackend().Open("probe/mem")
	p.must(err)
	keys := probeKeys()
	p.set("state.mem_addint_ns", timeInner(p.n, 64, func() { _, err := mem.AddInt(keys.next(), 1); p.must(err) }))
	p.set("state.mem_get_ns", timeInner(p.n, 64, func() { _, _, err := mem.Get(keys.next()); p.must(err) }))

	host := platform.NewHost(platform.Server)
	p.set("platform.work_overshoot_us", us(timeEach(max(p.n/4, 5), func() { host.Work(time.Millisecond) })-1e6))
	hist := telemetry.NewLatencyHistogram()
	v := int64(0)
	p.set("telemetry.observe_ns", timeInner(p.n, 64, func() { v += 977; hist.Observe(v & 0xfffff) }))
}

// keyRing cycles through 1024 state keys.
type keyRing struct {
	keys []string
	i    int
}

func probeKeys() *keyRing {
	r := &keyRing{keys: make([]string, 1024)}
	for i := range r.keys {
		r.keys[i] = "u" + strconv.Itoa(i)
	}
	return r
}

func (r *keyRing) next() string { r.i++; return r.keys[r.i&1023] }

// clientAndServer probes redisclient, and miniredis's time per command
// class as the Do round trip minus the PING round trip.
func (p *prober) clientAndServer(cluster *redisclient.Cluster) {
	cl, n := cluster.Shard(0), p.n
	ping := timeEach(n, func() { p.must(cl.Ping()) })
	p.set("redisclient.do_rtt_us", us(ping))
	pings := make([][]string, 64)
	for i := range pings {
		pings[i] = []string{"PING"}
	}
	p.set("redisclient.pipeline64_rtt_us", us(timeEach(n, func() { _, err := cl.Pipeline(pings); p.must(err) })))
	keyNo := 0
	p.set("redisclient.shardfor_ns", timeInner(n, 64, func() {
		keyNo++
		cluster.ShardFor("d4p:probe:st:{ns" + strconv.Itoa(keyNo&1023) + "}")
	}))

	server := func(fn func()) float64 { return us(timeEach(n, fn) - ping) }
	const stream, group = "probe:stream", "workers"
	p.must(cl.XGroupCreate(stream, group, "0"))
	p.set("miniredis.xadd_us", server(func() { _, err := cl.XAddValues(stream, "task", p.wire); p.must(err) }))
	_, err := cl.Del(stream)
	p.must(err)
	p.must(cl.XGroupCreate(stream, group, "0"))

	// 2n reads of 64 single-task entries: n for XREADGROUP/XACK, n for FENCEXACK.
	one, err := codec.Encode(p.tasks[0])
	p.must(err)
	fill := make([][]string, 64)
	for i := range fill {
		fill[i] = []string{"XADD", stream, "*", "task", one}
	}
	for i := 0; i < 2*n; i++ {
		_, err := cl.Pipeline(fill)
		p.must(err)
	}
	var batches [][]string
	read := func() {
		entries, err := cl.XReadGroup(group, "w0", 64, 0, stream)
		p.must(err)
		batches = append(batches, entryIDs(entries))
	}
	p.set("miniredis.xreadgroup64_us", server(read))
	i := 0
	p.set("miniredis.xack64_us", server(func() {
		_, err := cl.XAck(stream, group, batches[i]...)
		p.must(err)
		i++
	}))
	batches = batches[:0]
	for i := 0; i < n; i++ {
		read()
	}
	weights := make([]int64, 64)
	for i := range weights {
		weights[i] = 1
	}
	p.must(cl.Set("probe:pending", strconv.Itoa(64*n)))
	i = 0
	p.set("miniredis.fencexack_us", server(func() {
		if len(batches[i]) == 64 {
			_, _, _, err := cl.FenceXAck(stream, group, "w0", "probe:pending", 0, batches[i], weights)
			p.must(err)
		}
		i++
	}))

	p.must(cl.HSet("probe:hash", "f", "1"))
	p.set("miniredis.hget_us", server(func() { _, _, err := cl.HGet("probe:hash", "f"); p.must(err) }))
	p.set("miniredis.hset_us", server(func() { p.must(cl.HSet("probe:hash", "f", "2")) }))
	p.set("miniredis.hincrby_us", server(func() { _, err := cl.HIncrBy("probe:hash", "n", 1); p.must(err) }))
	i = 0
	p.set("miniredis.fenceapply_us", server(func() {
		i++
		_, _, err := cl.FenceApplyIncr("probe:hash", "ledger:"+strconv.Itoa(i), "n", 1)
		p.must(err)
	}))
	i = 0
	p.set("miniredis.sinkappend_us", server(func() {
		i++
		_, err := cl.SinkAppend("probe:hash", "gate:"+strconv.Itoa(i), [][]string{
			{"INCRBY", "probe:pending", "64"}, {"XADD", "probe:sink", "*", "task", p.wire},
		})
		p.must(err)
	}))
	p.must(cl.FlushAll())
}

// redisTransport probes RedisTransport's three calls at batch 1 and 64.
func (p *prober) redisTransport(cluster *redisclient.Cluster, seed int64) {
	g := graph.New("probe")
	plan := rt.NewPlan(make([]rt.WorkerSpec, 1), map[string]int{})
	tr, err := rt.NewRedisTransport(cluster, rt.NewRunKeys(g.Name, seed), plan, false)
	if err != nil {
		p.must(err)
		return
	}
	defer tr.Cleanup(g)
	// Push packs its tasks into one stream entry and PullBatch's max counts
	// entries, so pulling one entry pulls whatever one push carried.
	var pulled [][]rt.Env
	pull := func() {
		envs, err := tr.PullBatch(0, 1, 50*time.Millisecond)
		p.must(err)
		pulled = append(pulled, envs)
	}
	i := 0
	ack := func() { p.must(tr.Ack(0, pulled[i]...)); i++ }

	p.set("runtime.redis_push1_us", us(timeEach(p.n, func() { p.must(tr.Push(p.tasks[0])) })))
	p.set("runtime.redis_pull1_us", us(timeEach(p.n, pull)))
	for range pulled {
		ack()
	}
	pulled, i = pulled[:0], 0
	p.set("runtime.redis_push64_us_per_task", us(timeEach(p.n, func() { p.must(tr.Push(p.tasks...)) }))/64)
	p.set("runtime.redis_pull64_us_per_task", us(timeEach(p.n, pull))/64)
	p.set("runtime.redis_ack64_us_per_task", us(timeEach(p.n, ack))/64)
	p.must(tr.Done())
}

// redisState probes the Redis state backend: plain, fenced and coalesced
// operations, the fence ledger's growth, and a 50 000-key checkpoint.
func (p *prober) redisState(cluster *redisclient.Cluster) {
	n, keys := p.n, probeKeys()
	backend := state.NewRedisClusterBackend(cluster, "probe:state")
	store, err := backend.Open("probe/redis")
	if err != nil {
		p.must(err)
		return
	}
	p.set("state.redis_addint_us", us(timeEach(n, func() { _, err := store.AddInt(keys.next(), 1); p.must(err) })))
	p.set("state.redis_get_us", us(timeEach(n, func() { _, _, err := store.Get(keys.next()); p.must(err) })))
	p.set("state.redis_put_us", us(timeEach(n, func() { p.must(store.Put("p:"+keys.next(), "profile:value")) })))

	fenced := state.NewFencedStore(store)
	scope := fenced.NewScope()
	seq := uint64(0)
	fencedAdd := func() {
		seq++
		scope.SetToken(state.Token{Src: 0x5eed, Seq: seq})
		_, err := scope.AddInt(keys.next(), 1)
		p.must(err)
	}
	p.set("state.redis_fenced_addint_us", us(timeEach(n, fencedAdd)))
	ledger := 0.0
	if hash, _, ok := fenced.TaskGateRef(state.Token{Src: 0x5eed, Seq: 1}); ok {
		home := cluster.For(hash)
		for _, k := range keys.keys { // so the growth below is ledger fields only
			_, err := store.AddInt(k, 1)
			p.must(err)
		}
		before, err := home.HLen(hash)
		p.must(err)
		for i := 0; i < 1000; i++ {
			fencedAdd()
		}
		after, err := home.HLen(hash)
		p.must(err)
		ledger = float64(after - before)
	}
	p.set("state.ledger_fields_per_kop", ledger)

	coalBackend := state.NewRedisClusterBackend(cluster, "probe:coal")
	coalBackend.EnableCoalescing()
	coal, err := coalBackend.Open("probe/coal")
	if err != nil {
		p.must(err)
		return
	}
	errs := make([]error, 8) // one slot per caller: must is not safe for concurrent use
	p.set("state.redis_coalesced_addint_us", us(concurrentMedian(len(errs), max(n/8, 8), func(c, i int) {
		if _, err := coal.AddInt(keys.keys[(c*131+i)&1023], 1); err != nil {
			errs[c] = err
		}
	})))
	for _, err := range errs {
		p.must(err)
	}

	snap := make(state.Snapshot, 50_000)
	for i := 0; i < 50_000; i++ {
		snap["u"+strconv.Itoa(i)] = strconv.Itoa(i)
	}
	p.must(store.Restore(snap))
	reps := max(n/40, 1)
	p.set("state.checkpoint_ms_50k", timeEach(reps, func() { p.must(state.Checkpoint(backend, store)) })/1e6)
	p.set("state.restore_ms_50k", timeEach(reps, func() { _, err := state.RestoreLatest(backend, store); p.must(err) })/1e6)
	p.must(backend.DropNamespace("probe/redis"))
	p.must(coalBackend.DropNamespace("probe/coal"))
	p.must(coalBackend.Close())
}

// concurrentMedian runs fn from callers goroutines, each times its own calls,
// and returns the median call duration in ns.
func concurrentMedian(callers, each int, fn func(caller, i int)) float64 {
	ds := make([]float64, callers*each)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				t := time.Now()
				fn(c, i)
				ds[c*each+i] = float64(time.Since(t))
			}
		}(c)
	}
	wg.Wait()
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

func entryIDs(entries []redisclient.StreamEntry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// recordedReadGroupReply serializes the reply a worker's XREADGROUP COUNT 64
// gets when every entry holds one task.
func recordedReadGroupReply(tasks []codec.Task) ([]byte, error) {
	entries := make([]resp.Value, len(tasks))
	for i, t := range tasks {
		one, err := codec.Encode(t)
		if err != nil {
			return nil, err
		}
		entries[i] = resp.Arr(resp.Str("1700000000000-"+strconv.Itoa(i)), resp.StrArray("task", one))
	}
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	if err := w.WriteValue(resp.Arr(resp.Arr(resp.Str("d4p:probe:queue"), resp.Arr(entries...)))); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
