package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// emitFlushEvery bounds how long a partially-filled adaptive emit batch may
// age before being flushed. The age is checked only when the next task is
// emitted into the batch (and the batch always flushes before the worker's
// prefetch buffer refills, so with single-task pulls it flushes at every task
// end), so the bound kicks in for sources that keep emitting across a long
// Generate; a PE that emits once and then only computes holds its batch until
// the refill-time flush.
//
// The bound sets the paced median of the stateful Redis workloads: a pulled
// window runs one fenced round trip after another, so a window's age adds
// to its tasks' latency. 0.5 ms is the measured frontier (the benchmark's
// Redis workloads on a 2-vCPU host, with the coordinator's drain checks no
// longer polling a busy pool): session's paced p50 read 2.14 ms at 1 ms and
// 1.41 ms at 0.5 ms, for 7–8% more paced CPU per event on session and
// enrich; 0.25 ms read 0.68 ms for about 23% more CPU. The next step down
// needs fewer round trips per window, not a smaller bound. A timer cannot
// enforce the bound either: on an idle process Go's netpoller rounds a
// sub-millisecond wait up to about 1 ms, so a timer that ships an open window
// fires as late as the stalled emission does.
const emitFlushEvery = 500 * time.Microsecond

// pipeWindows bounds a pusher's queue in emit windows: with a push in flight,
// an emitter may hand off this many windows before it waits for the wire.
const pipeWindows = 4

// batcher buffers one worker's emitted tasks and hands them to the transport
// when the batch fills or ages out. Its methods run on the worker's goroutine
// only; under adaptive batching it also owns a pusher goroutine (see pusher),
// which it shares nothing with but the pusher's locked hand-off queue.
//
// A full or aged window is pushed inline, on the worker's goroutine, unless
// it filled faster than the last push took: then it is handed to the pusher,
// and the worker keeps emitting while the previous push is on the wire. An
// aged partial window is also handed off when the last push took more than a
// quarter of the age bound and longer than the emitter's mean gap between
// emissions: an inline push would hold a paced source's next emissions back
// and release them as one late burst (an emit window that fans out over an
// owned PE's partitions is one entry per partition, so its push is that
// slow). A window is also handed off whenever earlier ones are still queued
// or in flight, so an emitter's tasks reach the transport in emission order.
//
// flush is the barrier: it returns only once every emitted task has been
// pushed. The worker loop flushes the batch before releasing any task that
// emitted into it (the refill-time emits-then-acks ordering), so a task's
// children are always counted as pending before the task itself is released —
// buffering and pipelining never create a window in which the coordinator
// could observe a spuriously drained transport.
type batcher struct {
	tr      Transport
	sizer   *BatchSizer // adaptive window; nil pushes every task on its own
	buf     []Task
	firstAt time.Time

	// pipe is the pusher (nil when unbatched); lastPush is the duration of
	// the latest push, inline or piped — what a window's fill time is
	// compared with.
	pipe     *pusher
	lastPush time.Duration

	// Hold mode diverts pushed tasks into held instead of the transport — no
	// size- or age-trigger flushes — so a fenced Final's emissions can be
	// collected in full and shipped through PushFenced. See hold/take.
	holding bool
	held    []Task

	// Telemetry (optional): the latency and size of every push, inline or
	// piped. nil keeps an unbatched push free of time.Now calls.
	flushHist *telemetry.Histogram
	sizeHist  *telemetry.Histogram
}

// newBatcher pushes each task on its own, or with adaptive set attaches a
// sizer fed by the observed Push round-trip cost and a pusher; the caller
// must close the batcher.
func newBatcher(tr Transport, adaptive bool) *batcher {
	b := &batcher{tr: tr}
	if adaptive {
		b.sizer = NewBatchSizer()
		b.pipe = newPusher(tr)
	}
	return b
}

// close stops the pusher, dropping whatever is still queued: a worker that
// exits without a flush is failing. It returns once the pusher has exited.
func (b *batcher) close() {
	if b.pipe != nil {
		b.pipe.close()
	}
}

// window is the current flush threshold.
func (b *batcher) window() int {
	if b.sizer != nil {
		return b.sizer.Next()
	}
	return 1
}

// hold starts collecting pushed tasks instead of sending them. The caller
// must have flushed the batcher first so earlier unfenced emissions cannot
// leak into the held set.
func (b *batcher) hold() {
	b.holding = true
	b.held = b.held[:0]
}

// take ends hold mode and returns the collected tasks (valid until the next
// hold).
func (b *batcher) take() []Task {
	b.holding = false
	return b.held
}

// push buffers one task, shipping the window on size or age. A push error
// of the pusher surfaces here, on the next emission.
func (b *batcher) push(t Task) error {
	if b.holding {
		b.held = append(b.held, t)
		return nil
	}
	if b.sizer == nil { // unbatched: each emission is its own push
		b.buf = append(b.buf, t)
		return b.pushInline()
	}
	if b.pipe.failed.Load() {
		return b.pipe.stickyErr()
	}
	if len(b.buf) == 0 {
		b.firstAt = time.Now()
	}
	b.buf = append(b.buf, t)
	if fill := time.Since(b.firstAt); len(b.buf) >= b.sizer.Next() || fill >= emitFlushEvery {
		return b.ship(fill)
	}
	return nil
}

// ship sends a full or aged window that took fill to fill: inline while the
// pipeline is idle, the window filled no faster than the last push took and,
// for a partial window, that push was short (see batcher); through the
// pusher otherwise.
func (b *batcher) ship(fill time.Duration) error {
	p := b.pipe
	p.mu.Lock()
	b.absorb()
	stalls := len(b.buf) < b.sizer.Next() && b.lastPush > emitFlushEvery/4 && b.lastPush*time.Duration(len(b.buf)) > fill
	if p.err == nil && !p.busy() && fill >= b.lastPush && !stalls {
		p.mu.Unlock()
		return b.pushInline()
	}
	err := p.handOff(b.buf, pipeWindows*b.sizer.Next())
	p.mu.Unlock()
	b.buf = b.buf[:0]
	return err
}

// flush is the barrier: it pushes the buffered tasks, if any, and returns
// once every task handed to the pusher has been pushed too. With the
// pipeline idle the remainder goes inline, so a barrier pays no wake-up.
func (b *batcher) flush() error {
	if p := b.pipe; p != nil {
		p.mu.Lock()
		b.absorb()
		if p.err == nil && p.busy() {
			err := p.handOff(b.buf, pipeWindows*b.sizer.Next())
			b.buf = b.buf[:0]
			for err == nil && p.busy() {
				p.wake.Wait()
				err = p.err
			}
			b.absorb()
		}
		err := p.err
		p.mu.Unlock()
		if err != nil {
			b.buf = b.buf[:0]
			return err
		}
	}
	if len(b.buf) == 0 {
		return nil
	}
	return b.pushInline()
}

// pushInline pushes the buffered window on the worker's goroutine; an
// unbatched, uninstrumented push reads no clock.
func (b *batcher) pushInline() error {
	tasks := b.buf
	b.buf = b.buf[:0]
	if b.sizer == nil && b.flushHist == nil {
		return b.tr.Push(tasks...)
	}
	start := time.Now()
	err := b.tr.Push(tasks...)
	b.observe(time.Since(start), len(tasks))
	return err
}

// observe books one completed push of n tasks that took d.
func (b *batcher) observe(d time.Duration, n int) {
	b.lastPush = d
	if b.sizer != nil {
		b.sizer.Observe(d, n)
	}
	if b.flushHist != nil {
		b.flushHist.Observe(int64(d))
		b.sizeHist.Observe(int64(n))
	}
}

// absorb feeds the pushes the pusher completed since the last call to the
// worker's sizer, which thereby stays single-owner. Called with the pusher's
// lock held.
func (b *batcher) absorb() {
	p := b.pipe
	for _, o := range p.done {
		b.observe(o.d, o.n)
	}
	p.done = p.done[:0]
}

// pusher is the goroutine that ships a batcher's handed-off windows. It
// starts at the first hand-off, so a worker that never pipelines never runs
// it. When it is free it takes everything queued and ships it in one Push,
// so windows emitted while the previous push was on the wire share one round
// trip. The queue is bounded (see handOff), so a source cannot run
// unboundedly ahead of the wire. A push error is sticky: the pusher drops the
// rest of the queue and every later hand-off, and the batcher returns the
// error from its next emission or flush.
type pusher struct {
	tr Transport

	mu sync.Mutex
	// wake signals the pusher that the queue gained tasks or the batcher is
	// closing, and the batcher that a push completed.
	wake     sync.Cond
	queue    []Task // handed off, not yet taken
	spare    []Task // the other queue buffer, recycled from the last push
	inFlight bool   // a taken batch is being pushed
	done     []pushDone
	err      error
	started  bool
	closed   bool

	failed atomic.Bool // err != nil, readable without the lock
	exited chan struct{}
}

// pushDone is one completed pusher Push: n tasks in d.
type pushDone struct {
	d time.Duration
	n int
}

func newPusher(tr Transport) *pusher {
	p := &pusher{tr: tr, exited: make(chan struct{})}
	p.wake.L = &p.mu
	return p
}

// busy reports whether handed-off tasks are queued or being pushed. Called
// with the lock held.
func (p *pusher) busy() bool { return len(p.queue) > 0 || p.inFlight }

// stickyErr returns the push error that stopped the pusher.
func (p *pusher) stickyErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// handOff queues tasks for the pusher, first waiting while the queue already
// holds some and adding tasks would take it past limit. It returns the sticky
// error instead when a push has failed. Called with the lock held.
func (p *pusher) handOff(tasks []Task, limit int) error {
	if len(tasks) == 0 {
		return p.err
	}
	for p.err == nil && len(p.queue) > 0 && len(p.queue)+len(tasks) > limit {
		p.wake.Wait()
	}
	if p.err != nil {
		return p.err
	}
	p.queue = append(p.queue, tasks...)
	if !p.started {
		p.started = true
		go p.run()
	}
	p.wake.Broadcast()
	return nil
}

// run is the pusher goroutine.
func (p *pusher) run() {
	defer close(p.exited)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.wake.Wait()
		}
		if p.closed {
			return
		}
		batch := p.queue
		p.queue, p.inFlight = p.spare[:0], true
		p.wake.Broadcast() // the queue has room again
		p.mu.Unlock()
		start := time.Now()
		err := p.tr.Push(batch...)
		d := time.Since(start)
		p.mu.Lock()
		p.spare, p.inFlight = batch[:0], false
		p.done = append(p.done, pushDone{d: d, n: len(batch)})
		if err != nil { // the first error: handOff refuses tasks from here on
			p.err = err
			p.failed.Store(true)
			p.queue = p.queue[:0]
		}
		p.wake.Broadcast()
	}
}

// close stops the pusher and waits for it to exit.
func (p *pusher) close() {
	p.mu.Lock()
	p.closed = true
	started := p.started
	p.wake.Broadcast()
	p.mu.Unlock()
	if started {
		<-p.exited
	}
}

// ackBatch buffers one worker's acknowledgements so a pulled batch is
// released in one amortized transport operation (one FENCEXACK per shard on
// Redis). It is single-goroutine, like the batcher.
//
// Deferring an ack only ever keeps the pending count high, never low, so
// the termination invariant is untouched; what matters is that the batch is
// flushed — after the emit batch, so children land first — before the
// worker's prefetch buffer refills, before it parks idle, and before it
// exits, all of which the worker loop owns.
type ackBatch struct {
	tr  Transport
	w   int
	buf []Env

	// Telemetry (optional): ack-flush latency and traced-delivery ack events.
	hist   *telemetry.Histogram
	tracer *telemetry.Tracer
}

// add buffers one processed delivery for the next flush.
func (a *ackBatch) add(env Env) { a.buf = append(a.buf, env) }

// flush releases the buffered deliveries, if any.
func (a *ackBatch) flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	envs := a.buf
	a.buf = a.buf[:0]
	if a.hist == nil && a.tracer == nil {
		return a.tr.Ack(a.w, envs...)
	}
	start := time.Now()
	err := a.tr.Ack(a.w, envs...)
	if a.hist != nil {
		a.hist.Observe(int64(time.Since(start)))
	}
	if a.tracer != nil && err == nil {
		now := time.Now().UnixNano()
		for _, env := range envs {
			if env.TraceAt != 0 {
				a.tracer.RecordAck(env.Src, env.Seq, a.w, now)
			}
		}
	}
	return err
}

// router turns PE emissions into transport tasks: for every out-edge
// matching the emitted port it resolves the destination — a pinned instance
// chosen by the edge grouping, or the shared pool — and counts workflow
// outputs. It is the one copy of the routing logic formerly duplicated in
// every mapping. On a fused edge (see fuse.go) it runs the worker's own copy
// of the destination inline instead of producing a task.
type router struct {
	g       *graph.Graph
	plan    Plan
	outputs *atomic.Int64
	tasks   *atomic.Int64
	out     func(Task) error
	seq     map[*graph.Edge]uint64

	// Identity-stamping state: when stamped is on (exactly-once fencing, or
	// task tracing, which rides the same provenance identities), every
	// emitted task is stamped with a provenance derived from the task being
	// executed (cur) and the emitting edge, plus a per-(execution, edge)
	// sequence. gen versions the current execution so the per-edge counters
	// of each emit closure reset lazily at the first emission of a new task;
	// every execution, fused ones included, draws a fresh gen from the
	// monotonic counter gens, so restoring a parent's gen after a fused call
	// can never alias another execution's.
	stamped bool
	cur     Task
	gen     uint64
	gens    uint64

	// Tracing state (tracer nil when tracing is off): the worker slot.
	tracer *telemetry.Tracer
	worker int

	// diag (nil when diagnosis is off) feeds the per-PE out counters and
	// per-edge flow rows; emitFor caches the rows per closure. wm (nil when
	// telemetry is off) counts fused executions as worker tasks.
	diag *diagnosis.Diag
	wm   *telemetry.WorkerMetrics

	// Fusion state. fuseTo maps each fusable edge to the worker's copy of
	// its destination (nil when the worker cannot price a hop). processing
	// is on while a Process execution runs — the only place a fused
	// successor may run. inlineNs accumulates the wall time of the fused
	// calls made by the current execution, so its own service time can be
	// reported without them; timing is on while that execution is timed.
	fuseTo     map[*graph.Edge]*peCopy
	processing bool
	inlineNs   int64
	timing     bool

	// beat, set while a source's Generate runs, is the worker's progress
	// heartbeat (Transport.Extend), called at each emission: a Generate is
	// one task, however long it runs.
	beat func()
}

// begin marks the start of one task execution: subsequent emissions derive
// their stamped identity (and trace membership) from this task. A replayed
// execution of the same task therefore re-stamps identical children,
// wherever it runs.
func (r *router) begin(t Task) {
	if !r.stamped {
		return
	}
	r.cur = t
	r.gens++
	r.gen = r.gens
}

// edgeDst is what an emit closure knows about one out-edge's destination.
type edgeDst struct {
	nInst    int     // pinned instances; 0 means the shared pool
	parts    int     // leased partitions of an owned destination; 0 when not owned
	terminal bool    // a delivery into it counts as a workflow output
	fuse     *peCopy // on a fusable edge, this worker's copy of it
}

// emitFor builds the emit closure for one sending node. The closure is
// single-goroutine (each worker owns its router).
func (r *router) emitFor(node string) func(port string, value any) error {
	edges := r.g.OutEdges(node)
	// Per-edge facts resolved once here, never per emission.
	dsts := make([]edgeDst, len(edges))
	for i, e := range edges {
		dsts[i] = edgeDst{nInst: r.plan.Instances[e.To], parts: r.plan.Parts[e.To], terminal: len(r.g.OutEdges(e.To)) == 0, fuse: r.fuseTo[e]}
	}
	// Per-closure stamping state: a stable salt per out-edge and one child
	// sequence per out-edge, reset when the router moves to the next task
	// execution.
	var childSeq, salts []uint64
	var seqGen uint64
	if r.stamped {
		childSeq = make([]uint64, len(edges))
		salts = make([]uint64, len(edges))
		for i, e := range edges {
			salts[i] = edgeSalt(e.From, e.FromPort, e.To, e.ToPort)
		}
	}
	// Diagnosis flow rows, resolved once per closure (build time, not emit
	// time): the sender's ledger row plus one row per out-edge.
	var outFlow *diagnosis.PEFlow
	var edgeFlows []*diagnosis.EdgeFlow
	if r.diag != nil {
		outFlow = r.diag.PE(node)
		edgeFlows = make([]*diagnosis.EdgeFlow, len(edges))
		for i, e := range edges {
			edgeFlows[i] = r.diag.Edge(diagnosis.EdgeName(e.From, e.FromPort, e.To, e.ToPort))
		}
	}
	stamp := func(t Task, edgeIdx int) Task {
		if !r.stamped {
			return t
		}
		if seqGen != r.gen {
			seqGen = r.gen
			for i := range childSeq {
				childSeq[i] = 0
			}
		}
		t.Src = childSrc(r.cur.Src, r.cur.Seq, salts[edgeIdx])
		t.Seq = childSeq[edgeIdx]
		childSeq[edgeIdx]++
		if r.tracer != nil {
			// Traced parent ⇒ traced child; untraced executions start a new
			// trace on every sampleEvery-th emission, marked Root when the
			// trace begins at a source's Generate (a complete path head).
			if r.cur.TraceAt != 0 {
				t.TraceAt = time.Now().UnixNano()
				r.tracer.RecordEmit(r.cur.Src, r.cur.Seq, r.cur.PE, t.Src, t.Seq, r.worker, false, t.TraceAt)
			} else if r.tracer.Sample() {
				t.TraceAt = time.Now().UnixNano()
				isGen := r.cur.PE != "" && r.cur.Port == "" && !r.cur.Finalize
				r.tracer.RecordEmit(r.cur.Src, r.cur.Seq, r.cur.PE, t.Src, t.Seq, r.worker, isGen, t.TraceAt)
			}
		}
		return t
	}
	observe := func(ei int, value any) {
		if outFlow != nil {
			vb := diagnosis.ValueBytes(value)
			outFlow.ObserveOut(vb)
			edgeFlows[ei].ObserveTask(vb)
		}
	}
	return func(port string, value any) error {
		if r.beat != nil {
			r.beat()
		}
		for ei, e := range edges {
			if e.FromPort != port {
				continue
			}
			dst := &dsts[ei]
			if dst.terminal {
				r.outputs.Add(1)
			}
			nInst := dst.nInst
			if dst.parts > 0 {
				// Owned destination: the key's partition, read only by the
				// pool worker holding its lease.
				observe(ei, value)
				idx := e.Grouping.RouteInstance(value, r.seq[e], dst.parts)
				if err := r.out(stamp(Task{PE: e.To, Port: e.ToPort, Value: value, Instance: idx}, ei)); err != nil {
					return err
				}
				continue
			}
			if nInst == 0 {
				// Pooled destination: any worker may process the task — this
				// one, inline, when the edge is fused.
				observe(ei, value)
				t := stamp(Task{PE: e.To, Port: e.ToPort, Value: value, Instance: -1}, ei)
				var err error
				if c := dst.fuse; c != nil && c.fused && r.processing {
					err = r.runFused(c, t)
				} else {
					err = r.out(t)
				}
				if err != nil {
					return err
				}
				continue
			}
			idx := e.Grouping.RouteInstance(value, r.seq[e], nInst)
			r.seq[e]++
			if idx < 0 { // one-to-all broadcast
				for i := 0; i < nInst; i++ {
					observe(ei, value)
					if err := r.out(stamp(Task{PE: e.To, Port: e.ToPort, Value: value, Instance: i}, ei)); err != nil {
						return err
					}
				}
				continue
			}
			observe(ei, value)
			if err := r.out(stamp(Task{PE: e.To, Port: e.ToPort, Value: value, Instance: idx}, ei)); err != nil {
				return err
			}
		}
		return nil
	}
}
