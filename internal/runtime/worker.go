package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/state"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Config is a planner's placement decision handed to Execute: the worker
// plan, the transport carrying tasks, and the run-scoped services.
type Config struct {
	// Name is the technique label used in reports, errors and process names.
	Name string
	// Plan assigns worker slots and per-node instance counts.
	Plan Plan
	// Transport moves tasks between the workers.
	Transport Transport
	// Host is the simulated platform host accruing process time.
	Host *platform.Host
	// Controller optionally gates pool workers in and out of the idle state
	// (the auto-scaling mappings): a pool worker joins at its first refill
	// and asks at every refill whether it is surplus. Pinned workers are
	// never gated.
	Controller *autoscale.Controller
	// NewStateBackend supplies the default managed-state backend when the
	// graph declares managed state and Options.StateBackend is nil.
	NewStateBackend func() state.Backend
	// PinnedIdleStandby makes pinned workers deactivate (stop accruing
	// process time) while their queue is empty. The static mappings (multi,
	// mpi) enable it: their pre-runtime instances exited outright once
	// their input stream drained, so idle standby reproduces that
	// process-time accounting under coordinator-owned termination. Hybrid
	// leaves it off — its pinned stateful processes are dedicated and stay
	// hot for the whole run, the inefficiency hybrid_auto_redis attacks.
	PinnedIdleStandby bool
	// AdaptiveBatching sizes every worker's emit and pull windows at run
	// time (see BatchSizer). A partial emit batch is flushed when the next
	// emission finds it emitFlushEvery old — the age is checked only then —
	// and always before the worker refills, idles or exits. It also pipelines
	// emission: a window that filled faster than the last push took is
	// handed to the worker's pusher goroutine, which ships everything queued
	// in one Push while the worker keeps running; a slower window is pushed
	// inline. The Redis planners set it: a round trip dominates their
	// per-task cost. The in-process planners leave it off, so one queue
	// operation per task — the per-op synchronization cost the paper's
	// multiprocessing curves measure — stays visible.
	AdaptiveBatching bool
}

// Execute runs a workflow on the shared worker runtime: it seeds one
// generate task per source, starts one worker goroutine per plan slot, and
// runs the termination coordinator that drains the transport, flushes Final
// hooks exactly once each (topological order, draining between nodes so
// flushed values propagate), and finally poisons the workers.
func Execute(g *graph.Graph, opts mapping.Options, cfg Config) (_ metrics.Report, err error) {
	opts = opts.WithDefaults()
	ms, err := mapping.OpenManagedState(g, opts, cfg.NewStateBackend)
	if err != nil {
		return metrics.Report{}, err
	}
	success := false
	defer func() { ms.Finish(g, success) }()

	r := &run{g: g, opts: opts, cfg: cfg, ms: ms, fencing: ms.ExactlyOnce(), abort: make(chan struct{})}
	r.tel = opts.Telemetry
	if r.tel != nil {
		r.tracer = r.tel.Tracer()
	}
	// Tracing rides the same deterministic Src/Seq provenance the fence
	// uses, so identities are stamped when either consumer is active.
	// Stamping without fencing is harmless: fence scopes only exist when
	// fenced stores do.
	r.stamped = r.fencing || r.tracer != nil
	r.diag = opts.Diagnosis
	r.diag.Log(diagnosis.EvRunStart, -1, "", cfg.Name+"/"+g.Name, int64(len(cfg.Plan.Workers)))
	// An armed fault injector journals every fired fault as a run event, so
	// /journal?kind=fault shows exactly which faults a chaos run saw and when
	// relative to the lifecycle events around them.
	if inj := faultinject.Active(); inj != nil && r.diag != nil {
		diag := r.diag
		inj.SetJournal(func(probe, detail string) {
			diag.Log(diagnosis.EvFault, -1, "", detail, 1)
		})
	}
	if ctrl := cfg.Controller; ctrl != nil && r.diag != nil {
		// Only the resizes that enter or leave saturation are journaled: the
		// pool is resized up to once per monitor tick, which would evict every
		// other event from the ring. The resize counts are autoscale gauges.
		diag, full := r.diag, ctrl.Config().MaxPoolSize
		ctrl.OnScale(func(from, to int) {
			if from == full || to == full {
				diag.Log(diagnosis.EvScale, -1, "", fmt.Sprintf("active %d→%d of %d", from, to, full), int64(to))
			}
		})
	}
	// Post-mortem observability must exist even when the run errors out: the
	// final flight (which also seeds the gauge sources' last-good cache while
	// the transport is still open) and the run_end journal entry are deferred,
	// so early-return failures — a seed push on a dead transport, a worker
	// error — still leave a snapshot and a terminal journal event behind.
	defer func() {
		if r.tel != nil {
			r.tel.RecordFlight()
		}
		if r.diag != nil {
			detail := "ok"
			if err != nil {
				detail = "error: " + err.Error()
			}
			r.diag.Log(diagnosis.EvRunEnd, -1, "", detail, r.tasks.Load())
		}
	}()
	if r.tel != nil {
		tr := cfg.Transport
		r.tel.RegisterGauges("transport", func() (map[string]int64, bool) {
			n, err := tr.Pending()
			if err != nil {
				return nil, false
			}
			vals := map[string]int64{"pending": n}
			for k, v := range tr.QueueDepths() {
				vals[k] = v
			}
			return vals, true
		})
		if ctrl := cfg.Controller; ctrl != nil {
			r.tel.RegisterGauges("autoscale", func() (map[string]int64, bool) {
				st := ctrl.Stats()
				return map[string]int64{"active": int64(st.Active), "running": int64(st.Running), "parked": int64(st.Parked), "grows": st.Grows, "shrinks": st.Shrinks}, true
			})
		}
		if opts.TelemetryEvery > 0 {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(opts.TelemetryEvery)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						r.tel.RecordFlight()
					}
				}
			}()
		}
	}

	// Seed one generate task per source instance (pinned plans) or per
	// source (pool plans) before any worker starts, so the pending counter
	// is non-zero from the coordinator's first drain check. Under stamping,
	// seeds carry a (node, instance)-deterministic identity so a replayed
	// generate task — and every child it re-emits — keeps its provenance.
	seed := func(name string, instance int) Task {
		t := Task{PE: name, Instance: instance}
		if r.stamped {
			t.Src = seedSrc(name, instance)
		}
		return t
	}
	for _, src := range g.Sources() {
		count := cfg.Plan.Instances[src.Name]
		if count == 0 {
			if err := cfg.Transport.Push(seed(src.Name, -1)); err != nil {
				return metrics.Report{}, fmt.Errorf("%s: seed source %s: %w", cfg.Name, src.Name, err)
			}
			continue
		}
		for i := 0; i < count; i++ {
			if err := cfg.Transport.Push(seed(src.Name, i)); err != nil {
				return metrics.Report{}, fmt.Errorf("%s: seed source %s: %w", cfg.Name, src.Name, err)
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := range cfg.Plan.Workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.runWorker(w)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.coordinate()
	}()
	wg.Wait()
	elapsed := time.Since(start)

	r.errMu.Lock()
	err = r.firstErr
	r.errMu.Unlock()
	if err != nil {
		return metrics.Report{}, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	success = true
	return metrics.Report{
		Workflow:    g.Name,
		Mapping:     cfg.Name,
		Platform:    opts.Platform.Name,
		Processes:   opts.Processes,
		Runtime:     elapsed,
		ProcessTime: cfg.Host.TotalProcessTime(),
		Tasks:       r.tasks.Load(),
		Outputs:     r.outputs.Load(),
		State:       ms.Ops(),
	}, nil
}

// run is the shared state of one Execute call.
type run struct {
	g    *graph.Graph
	opts mapping.Options
	cfg  Config
	ms   *mapping.ManagedState

	tasks   atomic.Int64
	outputs atomic.Int64

	// fencing is on when any managed namespace is wrapped in a FencedStore
	// (Options.ExactlyOnceState / RecoverStale): tasks are stamped with
	// deterministic identities and workers route managed-state access
	// through per-worker fence scopes. stamped additionally covers tracing,
	// which reuses the same identities without the fence scopes.
	fencing bool
	stamped bool

	// tel/tracer mirror Options.Telemetry (nil when uninstrumented); diag
	// mirrors Options.Diagnosis (nil keeps the attribution paths cold).
	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	diag   *diagnosis.Diag

	abort     chan struct{}
	abortOnce sync.Once
	failed    atomic.Bool
	poisoned  atomic.Bool
	errMu     sync.Mutex
	firstErr  error
}

// fail records the first error and unwinds the run: the transport shuts
// down (unblocking workers), the controller releases idle workers, and the
// abort channel stops loops that are between transport operations.
func (r *run) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.failed.Store(true)
	r.abortOnce.Do(func() { close(r.abort) })
	_ = r.cfg.Transport.Done()
	if r.cfg.Controller != nil {
		r.cfg.Controller.Terminate()
	}
}

func (r *run) aborted() bool {
	select {
	case <-r.abort:
		return true
	default:
		return false
	}
}

// workerFail reports a worker-side error unless the run is already
// unwinding (transport shutdown errors are the unwind, not a new failure).
func (r *run) workerFail(err error) {
	if IsClosed(err) || r.aborted() {
		return
	}
	r.fail(err)
}

// runWorker is the one worker loop of the engine. A pinned worker owns a
// single PE instance; a pool worker owns a private copy of every pooled PE
// (the paper's cp_graph ← DeepCopy(graph)).
func (r *run) runWorker(w int) {
	spec := r.cfg.Plan.Workers[w]
	var procName string
	if spec.Pinned() {
		procName = fmt.Sprintf("%s:%s:%d", r.cfg.Name, spec.PE, spec.Instance)
	} else {
		procName = fmt.Sprintf("%s:w%d", r.cfg.Name, w)
	}
	proc := r.cfg.Host.NewProcess(procName)
	proc.Activate()
	defer proc.Deactivate()

	// The worker's telemetry shard is resolved once; a nil shard leaves every
	// hot-path branch on a simple pointer test.
	var wm *telemetry.WorkerMetrics
	if r.tel != nil {
		wm = r.tel.Worker(w)
	}
	r.diag.Log(diagnosis.EvWorkerStart, w, spec.PE, procName, 0)
	exitReason := "error"
	defer func() { r.diag.Log(diagnosis.EvWorkerExit, w, spec.PE, exitReason, 0) }()

	b := newBatcher(r.cfg.Transport, r.cfg.AdaptiveBatching)
	defer b.close() // the pusher never outlives its worker
	if wm != nil {
		b.flushHist = wm.EmitFlush
		b.sizeHist = wm.EmitBatch
	}
	if b.sizer != nil && r.diag != nil {
		b.sizer.OnResize = resizeLogger(r.diag, w, "emit")
	}
	rt := &router{g: r.g, plan: r.cfg.Plan, outputs: &r.outputs, tasks: &r.tasks, out: b.push,
		seq: map[*graph.Edge]uint64{}, stamped: r.stamped, tracer: r.tracer, worker: w, diag: r.diag, wm: wm}

	// Build this worker's PE copies. The diagnosis flow rows and the PE's
	// hooks are resolved here — once per worker, never per task. Under
	// fencing each managed-state context is routed through a per-worker
	// FenceScope, the handle the loop binds to the current delivery before
	// each task. Every copy exists before any emit closure is built, so a
	// closure can resolve the copy a fused edge calls into.
	var nodes []*graph.Node
	if spec.Pinned() {
		nodes = []*graph.Node{r.g.Node(spec.PE)}
	} else {
		for _, n := range r.g.Nodes() {
			if r.cfg.Plan.Instances[n.Name] == 0 { // else pinned elsewhere
				nodes = append(nodes, n)
			}
		}
	}
	copies := make(map[string]*peCopy, len(nodes))
	for _, n := range nodes {
		copies[n.Name] = &peCopy{}
	}
	// Fusion needs a measured hop cost, which only the adaptive sizers give.
	var fuseDsts []*peCopy
	if r.cfg.AdaptiveBatching && !spec.Pinned() {
		rt.fuseTo = map[*graph.Edge]*peCopy{}
		for _, e := range r.g.Edges() {
			if !fusable(r.g, r.cfg.Plan, e) {
				continue
			}
			c := copies[e.To]
			rt.fuseTo[e] = c
			if !c.fuseDst {
				c.fuseDst = true
				fuseDsts = append(fuseDsts, c)
			}
		}
	}
	for _, n := range nodes {
		instance, seed := w, r.opts.Seed^int64(w*7919)^int64(NodeHash(n.Name))
		if spec.Pinned() {
			instance, seed = spec.Instance, r.opts.Seed^int64(InstanceSeed(n.Name, spec.Instance))
		}
		c := copies[n.Name]
		c.pe = n.Factory()
		c.fin, _ = c.pe.(core.Finalizer)
		c.src, _ = c.pe.(core.Source)
		if r.diag != nil {
			c.flow = r.diag.PE(n.Name)
			c.flow.AddServer()
		}
		c.ctx = core.NewContext(n.Name, instance, r.cfg.Host, synth.NewRand(seed), rt.emitFor(n.Name))
		if fs := r.ms.Fenced(n.Name); fs != nil {
			c.fence, c.scope = fs, fs.NewScope()
			c.ctx = c.ctx.WithStore(c.scope)
		} else if st := r.ms.Store(n.Name); st != nil {
			c.ctx = c.ctx.WithStore(st)
		}
	}
	// Init emissions carry a per-worker provenance: Init runs once per
	// worker copy (never replayed), so its children must not be fenced
	// against another worker's.
	rt.begin(Task{Src: initSrc(w)})
	for name, c := range copies {
		if ini, ok := c.pe.(core.Initializer); ok {
			if err := ini.Init(c.ctx); err != nil {
				r.workerFail(fmt.Errorf("worker %s: init %s: %w", procName, name, err))
				return
			}
		}
	}
	// Anything emitted from Init hooks must reach the transport before the
	// worker starts pulling: a batch held here would be invisible to the
	// pending count and silently dropped at termination.
	if err := b.flush(); err != nil {
		r.workerFail(fmt.Errorf("worker %s: flush init emissions: %w", procName, err))
		return
	}

	// Per-loop invariants are hoisted out of the hot loop: the poll timeout
	// and pull sizer are resolved once here, not chased on every pull
	// iteration. Without adaptive batching a worker pulls one task at a time.
	tr := r.cfg.Transport
	pollTimeout := r.opts.PollTimeout
	var pullSizer *BatchSizer
	if r.cfg.AdaptiveBatching {
		pullSizer = NewBatchSizer()
		if r.diag != nil {
			pullSizer.OnResize = resizeLogger(r.diag, w, "pull")
		}
	}
	acks := &ackBatch{tr: tr, w: w, tracer: r.tracer}
	if wm != nil {
		acks.hist = wm.Ack
	}

	ctrl := r.cfg.Controller
	// Pool workers accrue process time while polling an empty queue — the
	// always-active cost auto-scaling exists to cut. Pinned workers under
	// PinnedIdleStandby instead deactivate across empty polls (see Config).
	standby := r.cfg.PinnedIdleStandby && spec.Pinned()
	active := true
	var buf []Env // worker-local prefetch buffer
	next := 0
	var pulledAt int64 // UnixNano of the current buffer's pull (tracing only)
	for {
		if r.aborted() {
			exitReason = "abort"
			return
		}
		if next >= len(buf) {
			// Refill. Order matters: buffered emissions reach the transport
			// first (children become pending), then the processed deliveries
			// are released in one batched ack, and only then may the worker
			// block — on the idle gate or on the pull itself.
			if err := b.flush(); err != nil {
				r.workerFail(fmt.Errorf("worker %s: flush emissions: %w", procName, err))
				return
			}
			if err := acks.flush(); err != nil {
				r.workerFail(fmt.Errorf("worker %s: ack batch: %w", procName, err))
				return
			}
			if fuseDsts != nil {
				decideFusion(fuseDsts, b.sizer, r.diag, w)
			}
			if ctrl != nil && !spec.Pinned() && ctrl.Gate(w) {
				// Idle state: stop accruing process time until readmitted.
				proc.Deactivate()
				if !ctrl.Admit(w) {
					exitReason = "idle_release"
					return
				}
				proc.Activate()
			}
			window := 1
			if pullSizer != nil {
				window = pullSizer.Next()
			}
			start := time.Now()
			envs, err := tr.PullBatch(w, window, pollTimeout)
			if err != nil {
				r.workerFail(fmt.Errorf("worker %s: pull: %w", procName, err))
				return
			}
			if pullSizer != nil {
				// Empty polls are observed too: a timed-out round trip is
				// real cost under bursty traffic and feeds the shrink rule
				// (without polluting the per-task cost estimate). The count
				// is frames, not tasks: the pull window (XREADGROUP COUNT)
				// is denominated in stream entries, and a packed entry
				// delivers many tasks for one unit of window — sizing on
				// tasks would starve the window long before the round trip
				// amortizes.
				pullSizer.Observe(time.Since(start), countFrames(envs))
			}
			if len(envs) == 0 {
				if wm != nil {
					wm.IdlePolls.Inc()
				}
				if standby && active {
					proc.Deactivate()
					active = false
				}
				continue // the coordinator owns termination
			}
			if wm != nil {
				wm.Pull.Observe(int64(time.Since(start)))
				wm.PullBatch.Observe(int64(len(envs)))
			}
			if r.tracer != nil {
				pulledAt = time.Now().UnixNano()
			}
			buf, next = envs, 0
		}
		if !active {
			proc.Activate()
			active = true
		}
		env := buf[next]
		next++
		if wm != nil {
			wm.Prefetch.Set(int64(len(buf) - next))
		}
		if env.Poison {
			exitReason = "poison"
			r.retirePoison(env, buf[next:], b, acks)
			return
		}
		if wm != nil {
			wm.Tasks.Inc()
		}
		// The progress heartbeat between tasks (see Transport.Extend); a
		// failure only risks an early reclaim, which recovery tolerates.
		_ = tr.Extend(w)
		c, ok := copies[env.PE]
		if !ok {
			r.workerFail(fmt.Errorf("worker %s: task for unknown PE %q", procName, env.PE))
			return
		}
		traced := r.tracer != nil && env.TraceAt != 0
		if !traced && c.flow == nil && !c.fuseDst {
			if err := r.runTask(procName, c, rt, b, acks, env); err != nil {
				r.workerFail(err)
				return
			}
			continue
		}
		// Timed execution: a traced delivery records its span even on error
		// (a trace ending in a failed hop is still reconstructable), the
		// flow ledger observes every execution's service time — plus, for
		// traced deliveries, the emit→start queue wait their TraceAt stamp
		// carries across the wire — and a fusion destination's mean service
		// time takes the sample.
		rt.inlineNs, rt.timing = 0, true
		startNs := time.Now().UnixNano()
		err := r.runTask(procName, c, rt, b, acks, env)
		endNs := time.Now().UnixNano()
		rt.timing = false
		rt.recordExec(c, env.Task, pulledAt, startNs, endNs)
		if c.fuseDst {
			c.observeService(endNs - startNs - rt.inlineNs)
		}
		if err != nil {
			r.workerFail(err)
			return
		}
	}
}

// resizeLogger journals one BatchSizer's window changes.
func resizeLogger(d *diagnosis.Diag, w int, which string) func(oldSize, newSize int) {
	return func(oldSize, newSize int) {
		d.Log(diagnosis.EvResize, w, "", fmt.Sprintf("%s %d→%d", which, oldSize, newSize), int64(newSize))
	}
}

// retirePoison winds a worker down on its pill. A batch read off the Redis
// stream can deliver several pool pills to one consumer (stream deliveries
// are irreversible, so the transport cannot put them back); whatever was
// delivered behind this worker's pill is re-pushed for the workers it was
// meant for before the deliveries are released — push before ack, so even a
// non-poison straggler never dips the pending count. Errors are ignored:
// this path races transport shutdown by design.
func (r *run) retirePoison(pill Env, rest []Env, b *batcher, acks *ackBatch) {
	r.diag.Log(diagnosis.EvPill, acks.w, "", "retire", int64(len(rest)))
	if len(rest) > 0 {
		tasks := make([]Task, len(rest))
		for i, env := range rest {
			tasks[i] = env.Task
		}
		_ = r.cfg.Transport.Push(tasks...)
	}
	_ = b.flush()
	acks.add(pill)
	for _, env := range rest {
		acks.add(env)
	}
	_ = acks.flush()
}

// peCopy is one worker's private instance of a PE with what the loop needs
// per task resolved once at build time: its context, its hooks and, under
// exactly-once fencing, its namespace's fence and this worker's scope on it.
type peCopy struct {
	pe    core.PE
	ctx   *core.Context
	fin   core.Finalizer     // nil when the PE has no Final hook
	src   core.Source        // nil unless the PE is a source
	fence *state.FencedStore // nil unless the node's state is fenced
	scope *state.FenceScope  // this worker's handle on fence
	flow  *diagnosis.PEFlow  // nil when diagnosis is off

	// Fusion (see fuse.go): fuseDst marks the destination of a fusable edge,
	// whose self service time this worker measures — svcNs in total over
	// runs timed executions — and fused whether its in-edges currently run it
	// inline; sample marks its next fused call to be timed.
	fuseDst bool
	fused   bool
	sample  bool
	runs    int64
	svcNs   int64
}

// runTask executes one delivered task: generate, process, or finalize. The
// acknowledgement is deferred into the worker's ack batch; because the ack
// batch is only ever flushed after the emit batch, the task's children are
// pending before the task itself is released.
//
// Under fencing the router and the PE's fence scope are bound to the
// delivery's identity first, so re-emitted children are stamped
// deterministically and managed-state mutations of a duplicate execution
// are dropped by the store's applied ledger.
func (r *run) runTask(procName string, c *peCopy, rt *router, b *batcher, acks *ackBatch, env Env) error {
	rt.begin(env.Task)
	if c.scope != nil {
		c.scope.SetToken(state.Token{Src: env.Src, Seq: env.Seq})
		defer c.scope.ClearToken()
	}
	var err error
	switch {
	case env.Finalize && c.fence != nil:
		err = r.finalFenced(c, b, env)
	case env.Finalize:
		if c.fin != nil {
			err = c.fin.Final(c.ctx)
		}
	case env.Port == "":
		if c.src == nil {
			err = fmt.Errorf("generate task for non-source PE %q", env.PE)
			break
		}
		r.tasks.Add(1)
		err = c.src.Generate(c.ctx)
	default:
		r.tasks.Add(1)
		// Hold mode exists only inside a fenced Final, never here.
		rt.processing = true
		err = c.pe.Process(c.ctx, env.Port, env.Value)
		rt.processing = false
	}
	if err != nil {
		// Release the deliveries so a failed run does not hang on a counter
		// that can never drain, then surface the PE error.
		acks.add(env)
		_ = acks.flush()
		if IsClosed(err) {
			return err
		}
		return fmt.Errorf("worker %s: PE %s: %w", procName, env.PE, err)
	}
	acks.add(env)
	return nil
}

// finalFenced runs a fenced Final, the one path on every transport. A
// Final's effect is its emissions, not store writes, so the whole delivery
// is gated: a replayed Finalize that raced its original must not flush (and
// double-emit) the namespace again. The Final runs with the batcher in hold
// mode — earlier emissions flushed first, so nothing unfenced can leak into
// the held set — and its whole output ships through PushFenced, which lands
// it only if this execution records the delivery's task gate. Where the
// transport shares the state's server that is one transaction, so a worker
// killed anywhere before the push leaves no gate record and the replayed
// Finalize redoes the flush in full. A duplicate pushes nothing and is
// counted as a fence drop.
func (r *run) finalFenced(c *peCopy, b *batcher, env Env) error {
	if err := b.flush(); err != nil {
		return err
	}
	b.hold()
	var err error
	if c.fin != nil {
		err = c.fin.Final(c.ctx)
	}
	held := b.take()
	if err != nil {
		return err
	}
	if err := faultinject.Fire(faultinject.ProbeMidFinalFlush); err != nil {
		return err
	}
	// Entries are capped at the emit window so the batch keeps the normal
	// path's delivery granularity downstream.
	gate := c.fence.TaskGate(state.Token{Src: env.Src, Seq: env.Seq})
	applied, err := r.cfg.Transport.PushFenced(gate, max(b.window(), 1), held...)
	if err == nil && !applied {
		c.fence.ObserveDrop()
	}
	return err
}

// coordinate owns termination: wait for the drain, flush Finals, poison.
func (r *run) coordinate() {
	err := r.drainAndFinalize()
	if err != nil && !errors.Is(err, errRunAborted) && !r.failed.Load() {
		r.fail(err)
		return
	}
	if r.failed.Load() {
		return
	}
	r.poisonAll()
	if r.cfg.Controller != nil {
		// Release workers parked in the idle state so they can observe
		// their poison pills (or exit directly).
		r.cfg.Controller.Terminate()
	}
}

// drainAndFinalize implements the unified finalization protocol that
// replaced the per-mapping drain variants: after the stream drains, each
// Finalizer node gets its Final flushed — once per pinned instance for
// field-state nodes, exactly once (instance 0, or any pool worker) for
// managed-state nodes, whose shared store is quiescent once the transport
// is drained.
func (r *run) drainAndFinalize() error {
	if err := r.awaitDrain(); err != nil {
		return err
	}
	r.diag.Log(diagnosis.EvDrain, -1, "", "stream drained", 0)
	order, err := r.g.TopoSort()
	if err != nil {
		return err
	}
	for _, name := range order {
		n := r.g.Node(name)
		if _, ok := n.Prototype.(core.Finalizer); !ok {
			continue
		}
		count := r.cfg.Plan.Instances[name]
		final := func(instance int) Task {
			t := Task{PE: name, Instance: instance, Finalize: true}
			if r.stamped {
				t.Src = finalSrc(name, instance)
			}
			return t
		}
		var finals []Task
		switch {
		case count == 0:
			// Pooled node: validation guarantees it is managed-state, so a
			// single Final on any worker flushes the shared namespace.
			finals = []Task{final(-1)}
		case n.HasManagedState():
			// One namespace shared by all instances ⇒ Final runs once.
			finals = []Task{final(0)}
		default:
			for i := 0; i < count; i++ {
				finals = append(finals, final(i))
			}
		}
		if err := r.cfg.Transport.Push(finals...); err != nil {
			return err
		}
		r.diag.Log(diagnosis.EvDrain, -1, name, "finals pushed", int64(len(finals)))
		if err := r.awaitDrain(); err != nil {
			return err
		}
	}
	return nil
}

// errRunAborted signals that a worker failed first; fail() owns the unwind.
var errRunAborted = errors.New("runtime: run aborted")

func (r *run) awaitDrain() error {
	return AwaitDrain(r.cfg.Transport, r.opts.PollTimeout, r.opts.Retries, &r.failed)
}

// AwaitDrain blocks until the transport's pending count stays zero across
// the retry budget — the engine-wide version of the paper's Section 3.2.3
// retry termination check. A non-nil failed flag aborts the wait when set.
func AwaitDrain(tr Transport, pollTimeout time.Duration, retries int, failed *atomic.Bool) error {
	zeros := 0
	for {
		if failed != nil && failed.Load() {
			return errRunAborted
		}
		n, err := tr.Pending()
		if err != nil {
			return err
		}
		if n == 0 {
			zeros++
			if zeros > retries {
				return nil
			}
		} else {
			zeros = 0
		}
		time.Sleep(pollTimeout)
	}
}

// poisonAll pushes one pill per worker, once: pool pills on the shared
// route, addressed pills to every pinned instance.
func (r *run) poisonAll() {
	if r.poisoned.Swap(true) {
		return
	}
	var pills []Task
	for i := 0; i < r.cfg.Plan.Pool; i++ {
		pills = append(pills, Task{Poison: true, Instance: -1})
	}
	for _, spec := range r.cfg.Plan.Workers {
		if spec.Pinned() {
			pills = append(pills, Task{Poison: true, PE: spec.PE, Instance: spec.Instance})
		}
	}
	if len(pills) > 0 {
		r.diag.Log(diagnosis.EvPill, -1, "", "poison_all", int64(len(pills)))
		_ = r.cfg.Transport.Push(pills...)
	}
}

// countFrames counts the wire frames behind a pulled batch: a run of envs
// sharing a non-empty (Shard, AckID) came from one packed stream entry; envs
// without an AckID (in-process deliveries) count one each, so the frame
// count degrades to the task count on transports that don't pack. The pull
// sizer observes frames because its window (XREADGROUP COUNT) is denominated
// in entries.
func countFrames(envs []Env) int {
	n := 0
	for i, env := range envs {
		if env.AckID == "" || i == 0 ||
			envs[i-1].AckID != env.AckID || envs[i-1].Shard != env.Shard {
			n++
		}
	}
	return n
}
