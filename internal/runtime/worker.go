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
	// AutoScale puts the Algorithm 1 auto-scaler in front of the plan's pool
	// (the auto mappings): a pool worker joins at its first refill and asks
	// at every refill whether it is surplus. Pinned workers are never gated.
	// Execute wires the controller the same way on every transport (see
	// autoScaler).
	AutoScale bool
	// NewStateBackend supplies the default managed-state backend when the
	// graph declares managed state and Options.StateBackend is nil.
	NewStateBackend func() state.Backend
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
// flushed values propagate), and finally closes the drained transport, which
// is what makes every worker exit.
func Execute(g *graph.Graph, opts mapping.Options, cfg Config) (_ metrics.Report, err error) {
	opts = opts.WithDefaults()
	ms, err := mapping.OpenManagedState(g, opts, cfg.NewStateBackend)
	if err != nil {
		return metrics.Report{}, err
	}
	success := false
	defer func() { ms.Finish(g, success) }()

	r := &run{g: g, opts: opts, cfg: cfg, ms: ms, fencing: ms.ExactlyOnce(),
		tel: opts.Telemetry, diag: opts.Diagnosis, drained: make(chan struct{}, 1)}
	if err := r.own(); err != nil {
		return metrics.Report{}, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	if r.ctrl = r.autoScaler(); r.ctrl != nil {
		defer r.ctrl.Terminate() // stop covers a started run, not an early return
	}
	if r.tel != nil {
		r.tracer = r.tel.Tracer()
	}
	// Tracing rides the same deterministic Src/Seq provenance the fence
	// uses, so identities are stamped when either consumer is active.
	// Stamping without fencing is harmless: scopes are only bound to
	// deliveries when their namespace is fenced.
	r.stamped = r.fencing || r.tracer != nil
	finish := r.observe()
	defer func() { finish(err) }()
	if err := r.seed(); err != nil {
		return metrics.Report{}, fmt.Errorf("%s: %w", cfg.Name, err)
	}

	// Every worker counts as busy until its first refill, which comes after
	// its Init emissions are flushed: a drain check can only succeed once
	// each worker has left init.
	r.busy.Store(int64(len(cfg.Plan.Workers)))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range cfg.Plan.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runWorker(w)
		}()
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

// observe wires the run's journal and telemetry: run_start, the transport
// and autoscale gauges and the flight ticker. The returned finish stops the
// ticker, records the final flight and journals run_end. Execute defers it,
// because post-mortem observability must exist even when the run errors out:
// the final flight (which also seeds the gauge sources' last-good cache
// before the planner tears the transport down) and the run_end entry are
// left behind by early-return failures too — a seed push on a dead
// transport, a worker error.
func (r *run) observe() (finish func(err error)) {
	r.diag.Log(diagnosis.EvRunStart, -1, "", r.cfg.Name+"/"+r.g.Name, int64(len(r.cfg.Plan.Workers)))
	// An armed fault injector journals every fired fault as a run event, so
	// /journal?kind=fault shows exactly which faults a chaos run saw and when
	// relative to the lifecycle events around them.
	if inj := faultinject.Active(); inj != nil && r.diag != nil {
		diag := r.diag
		inj.SetJournal(func(probe, detail string) {
			diag.Log(diagnosis.EvFault, -1, "", detail, 1)
		})
	}
	if ctrl := r.ctrl; ctrl != nil && r.diag != nil {
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
	stop := make(chan struct{})
	if r.tel != nil {
		tr := r.cfg.Transport
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
		if ctrl := r.ctrl; ctrl != nil {
			r.tel.RegisterGauges("autoscale", func() (map[string]int64, bool) {
				st := ctrl.Stats()
				return map[string]int64{"active": int64(st.Active), "running": int64(st.Running), "parked": int64(st.Parked), "grows": st.Grows, "shrinks": st.Shrinks}, true
			})
		}
		if every := r.opts.TelemetryEvery; every > 0 {
			go func() {
				tick := time.NewTicker(every)
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
	return func(err error) {
		close(stop)
		if r.tel != nil {
			r.tel.RecordFlight()
		}
		detail := "ok"
		if err != nil {
			detail = "error: " + err.Error()
		}
		r.diag.Log(diagnosis.EvRunEnd, -1, "", detail, r.tasks.Load())
	}
}

// seed pushes one generate task per source instance (pinned plans) or per
// source (pool plans) before any worker starts, so the pending counter is
// non-zero from the coordinator's first drain check.
func (r *run) seed() error {
	for _, src := range r.g.Sources() {
		first, n := -1, 1
		if count := r.cfg.Plan.Instances[src.Name]; count > 0 {
			first, n = 0, count
		}
		for i := first; i < first+n; i++ {
			if err := r.cfg.Transport.Push(r.controlTask(src.Name, i, false)); err != nil {
				return fmt.Errorf("seed source %s: %w", src.Name, err)
			}
		}
	}
	return nil
}

// controlTask is the generate task (finalize false) or the Final task of one
// node instance; instance -1 lets any pool worker run it. Under stamping it
// carries a (node, instance)-deterministic identity, so a replayed control
// task — and every child it re-emits — keeps its provenance.
func (r *run) controlTask(name string, instance int, finalize bool) Task {
	t := Task{PE: name, Instance: instance, Finalize: finalize}
	if r.stamped && finalize {
		t.Src = finalSrc(name, instance)
	} else if r.stamped {
		t.Src = seedSrc(name, instance)
	}
	return t
}

// run is the shared state of one Execute call.
type run struct {
	g    *graph.Graph
	opts mapping.Options
	cfg  Config
	ms   *mapping.ManagedState

	// ctrl gates the pool workers in and out of the idle state (nil without
	// auto-scaling); idle is its IdleMs signal's source (nil unless the
	// strategy reads that signal).
	ctrl *autoscale.Controller
	idle *idleClock

	tasks   atomic.Int64
	outputs atomic.Int64

	// fencing is on when any managed namespace is fenced (Options.
	// ExactlyOnceState / RecoverStale): tasks are stamped with deterministic
	// identities and workers bind their fence scopes to them. stamped
	// additionally covers tracing, which reuses the same identities without
	// binding the scopes.
	fencing bool
	stamped bool

	// tel/tracer mirror Options.Telemetry (nil when uninstrumented); diag
	// mirrors Options.Diagnosis (nil keeps the attribution paths cold).
	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	diag   *diagnosis.Diag

	// owned lists the PEs whose tasks ride leased partitions (own.go);
	// holders counts the pool workers eligible to hold their leases: neither
	// parked, nor in a source's Generate, nor gone.
	owned   []*ownedPE
	holders atomic.Int64

	// busy counts the workers in init or holding deliveries: Execute counts
	// every worker before it starts, a pull that returns tasks raises it, and
	// the worker lowers it once its acks are flushed (before the idle gate
	// and the next pull) or when it exits. pulls counts the pulls that
	// returned tasks, each raised after its busy count. The coordinator
	// accepts a drain on one zero pending read only if busy stays zero and
	// pulls does not move across it (see AwaitDrain, woken through drained).
	busy    atomic.Int64
	pulls   atomic.Int64
	drained chan struct{}

	failed   atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

// fail records the first error and unwinds the run: the failed flag stops
// loops that are between transport operations, and stop ends the rest. It
// reports whether err became the run's error.
func (r *run) fail(err error) bool {
	r.errMu.Lock()
	first := r.firstErr == nil
	if first {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.failed.Store(true)
	r.wake()
	r.stop()
	return first
}

// wake tells the coordinator a drain check may pass, without blocking.
func (r *run) wake() {
	select {
	case r.drained <- struct{}{}:
	default:
	}
}

// stop is the one way a run ends its workers, on success and failure alike:
// the transport shuts down, so every pull returns the closed error, and the
// controller releases workers parked in the idle state.
func (r *run) stop() {
	_ = r.cfg.Transport.Done()
	if r.ctrl != nil {
		r.ctrl.Terminate()
	}
}

// errReleased ends a pool worker the auto-scaler released from the idle state.
var errReleased = errors.New("runtime: released from the idle state")

// runWorker is the one worker loop of the engine, the paper's dynamic
// mapping loop: after init, each turn executes the next buffered delivery or,
// with the buffer spent, refills it. A step's error ends the loop, and the
// one exit turns it into the worker's exit reason: "done" when the
// coordinator closed the drained transport, "idle_release" when the
// auto-scaler released the parked worker from a finished run, "error" when
// the worker's own step fails the run (the one place a worker error is
// wrapped with its process name and recorded), and "abort" when the run is
// already unwinding: shutdown errors are the unwind, not a new failure.
func (r *run) runWorker(w int) {
	wk := r.newWorker(w)
	defer wk.close()
	err := wk.init()
	for err == nil {
		switch {
		case r.failed.Load():
			err = errRunAborted
		case wk.next < len(wk.buf):
			err = wk.execute()
		default:
			err = wk.refill()
		}
	}
	reason := "abort"
	switch {
	case IsClosed(err) && !r.failed.Load():
		reason = "done"
	case errors.Is(err, errReleased) && !r.failed.Load():
		reason = "idle_release"
	case !r.failed.Load() && r.fail(fmt.Errorf("worker %s: %w", wk.proc.Name(), err)):
		reason = "error"
	}
	r.diag.Log(diagnosis.EvWorkerExit, w, wk.spec.PE, reason, 0)
}

// worker is one plan slot's loop state; its methods are the loop's steps. A
// pinned worker owns a single PE instance; a pool worker owns a private copy
// of every pooled PE (the paper's cp_graph ← DeepCopy(graph)).
type worker struct {
	r    *run
	w    int
	spec WorkerSpec
	tr   Transport
	proc *platform.Process
	// wm is the worker's telemetry shard, resolved once; nil leaves every
	// hot-path branch on a simple pointer test.
	wm *telemetry.WorkerMetrics

	copies   map[string]*peCopy
	fuseDsts []*peCopy // the destinations of this worker's fusable edges
	rt       *router
	b        *batcher
	acks     *ackBatch
	// pullSizer sizes the pull window; nil pulls one task at a time.
	pullSizer *BatchSizer
	// ctrl and idle are the run's, nil on a pinned worker, which is never
	// gated. Pool workers accrue process time while polling an empty queue —
	// the always-active cost auto-scaling exists to cut. A standby worker
	// (every pinned worker of a plan with no pool: multi, mpi) is off the
	// clock while its box is empty, as a static instance's process ends once
	// its input drains. Hybrid's pinned stateful processes sit beside a pool
	// and stay hot for the whole run, the inefficiency hybrid_auto_redis
	// attacks.
	ctrl    *autoscale.Controller
	idle    *idleClock
	standby bool

	buf  []Env // the prefetch buffer; next indexes its next delivery
	next int
	// own is the worker's side of each owned PE (pool workers only),
	// eligible whether it counts among the run's holders, and pulled whether
	// it has pulled yet.
	own      []*ownSlot
	eligible bool
	pulled   bool
	holding  bool  // counted in r.busy: in init, or buf's deliveries are not all acked
	pulledAt int64 // UnixNano of buf's pull (tracing only)
}

// newWorker starts worker w's process and builds its router, emit and ack
// batches and pull sizer. Without adaptive batching a worker pulls one task
// at a time.
func (r *run) newWorker(w int) *worker {
	wk := &worker{r: r, w: w, spec: r.cfg.Plan.Workers[w], tr: r.cfg.Transport, holding: true,
		b: newBatcher(r.cfg.Transport, r.cfg.AdaptiveBatching), acks: &ackBatch{tr: r.cfg.Transport, w: w, tracer: r.tracer}}
	name := fmt.Sprintf("%s:w%d", r.cfg.Name, w)
	if wk.spec.Pinned() {
		name = fmt.Sprintf("%s:%s:%d", r.cfg.Name, wk.spec.PE, wk.spec.Instance)
		wk.standby = r.cfg.Plan.Pool == 0
	} else {
		wk.ctrl, wk.idle = r.ctrl, r.idle
	}
	wk.proc = r.cfg.Host.NewProcess(name)
	wk.proc.Activate()
	if r.tel != nil {
		wk.wm = r.tel.Worker(w)
		wk.b.flushHist, wk.b.sizeHist, wk.acks.hist = wk.wm.EmitFlush, wk.wm.EmitBatch, wk.wm.Ack
	}
	if r.cfg.AdaptiveBatching {
		wk.pullSizer = NewBatchSizer()
		if r.diag != nil {
			wk.b.sizer.OnResize = resizeLogger(r.diag, w, "emit")
			wk.pullSizer.OnResize = resizeLogger(r.diag, w, "pull")
		}
	}
	wk.rt = &router{g: r.g, plan: r.cfg.Plan, outputs: &r.outputs, tasks: &r.tasks, out: wk.b.push,
		seq: map[*graph.Edge]uint64{}, stamped: r.stamped, tracer: r.tracer, worker: w, diag: r.diag, wm: wk.wm}
	r.diag.Log(diagnosis.EvWorkerStart, w, wk.spec.PE, name, 0)
	return wk
}

// close releases what the worker still holds: its busy count, its place
// among the lease holders, its pusher (which never outlives its worker) and
// its active span.
func (wk *worker) close() {
	wk.release()
	wk.setEligible(false)
	wk.b.close()
	wk.proc.Deactivate()
}

// release lowers the run's busy count once buf's deliveries are all acked;
// the worker that brings it to zero wakes the coordinator.
func (wk *worker) release() {
	if wk.holding {
		if wk.r.busy.Add(-1) == 0 {
			wk.r.wake()
		}
		wk.holding = false
	}
}

// init builds the worker's PE copies and fusion edges, runs the Init hooks
// and flushes their emissions. The diagnosis flow rows and the PE's hooks are
// resolved here — once per worker, never per task. Each managed-state context
// is routed through a per-worker FenceScope; under fencing it is the handle
// runTask binds to the current delivery. Every copy exists before any emit
// closure is built, so a closure can resolve the copy a fused edge calls into.
func (wk *worker) init() error {
	r, spec := wk.r, wk.spec
	var nodes []*graph.Node
	wk.copies = map[string]*peCopy{}
	for _, n := range r.g.Nodes() {
		if n.Name == spec.PE || !spec.Pinned() && r.cfg.Plan.Instances[n.Name] == 0 { // else pinned elsewhere
			nodes = append(nodes, n)
			wk.copies[n.Name] = &peCopy{}
		}
	}
	wk.initOwn()
	// Fusion needs a measured hop cost, which only the adaptive sizers give.
	if r.cfg.AdaptiveBatching && !spec.Pinned() {
		wk.rt.fuseTo = map[*graph.Edge]*peCopy{}
		for _, e := range r.g.Edges() {
			if c := wk.copies[e.To]; fusable(r.g, r.cfg.Plan, e) {
				wk.rt.fuseTo[e] = c
				if !c.fuseDst {
					c.fuseDst = true
					wk.fuseDsts = append(wk.fuseDsts, c)
				}
			}
		}
	}
	for _, n := range nodes {
		instance, seed := wk.w, r.opts.Seed^int64(wk.w*7919)^int64(NodeHash(n.Name))
		if spec.Pinned() {
			instance, seed = spec.Instance, r.opts.Seed^int64(InstanceSeed(n.Name, spec.Instance))
		}
		c := wk.copies[n.Name]
		c.pe = n.Factory()
		c.fin, _ = c.pe.(core.Finalizer)
		c.src, _ = c.pe.(core.Source)
		if r.diag != nil {
			c.flow = r.diag.PE(n.Name)
			c.flow.AddServer()
		}
		c.ctx = core.NewContext(n.Name, instance, r.cfg.Host, synth.NewRand(seed), wk.rt.emitFor(n.Name))
		if sc := r.ms.Scope(n.Name); sc != nil {
			c.scope, c.fence = sc, r.ms.Fenced(n.Name)
			c.ctx = c.ctx.WithStore(sc)
		}
	}
	// Init emissions carry a per-worker provenance: Init runs once per
	// worker copy (never replayed), so its children must not be fenced
	// against another worker's.
	wk.rt.begin(Task{Src: initSrc(wk.w)})
	for name, c := range wk.copies {
		if ini, ok := c.pe.(core.Initializer); ok {
			if err := ini.Init(c.ctx); err != nil {
				return fmt.Errorf("init %s: %w", name, err)
			}
		}
	}
	// Anything emitted from Init hooks must reach the transport before the
	// worker starts pulling: a batch held here would be invisible to the
	// pending count and silently dropped at termination.
	if err := wk.b.flush(); err != nil {
		return fmt.Errorf("flush init emissions: %w", err)
	}
	if wk.idle != nil {
		wk.idle.stamp(wk.w) // joining counts as activity, as a new consumer's does
	}
	return nil
}

// refill releases what the spent buffer held and pulls the next window.
// Order matters: buffered emissions reach the transport first (children
// become pending), then the processed deliveries are released — owned
// partitions' in their window's commit, which the pull carries ahead of its
// read (see own.go), the rest in one batched ack — and only then may the
// worker block, on the idle gate or on the pull itself. Leases are evened
// out before the pull, and an owned window's cold keys and marks are loaded
// after it. Fusion is decided here, at a refill boundary, never
// mid-task. A pull's closed error is the normal exit once the coordinator
// closed the drained transport: nothing is pending, so nothing is left
// unflushed or unacked. After an empty pull the buffer stays spent.
func (wk *worker) refill() error {
	if err := wk.b.flush(); err != nil {
		return fmt.Errorf("flush emissions: %w", err)
	}
	if err := wk.settle(false); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if err := wk.acks.flush(); err != nil {
		return fmt.Errorf("ack batch: %w", err)
	}
	wk.release()
	if wk.fuseDsts != nil {
		decideFusion(wk.fuseDsts, wk.b.sizer, wk.r.diag, wk.w)
	}
	if err := wk.gate(); err != nil {
		return err
	}
	if err := wk.lease(); err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	window := 1
	if wk.pullSizer != nil {
		window = wk.pullSizer.Next()
	}
	start := time.Now()
	envs, err := wk.pull(window)
	if err != nil {
		if IsClosed(err) && !wk.r.failed.Load() {
			_ = wk.standDown() // drained: nothing is left to commit, only leases to give back
		}
		return fmt.Errorf("pull: %w", err)
	}
	if wk.pullSizer != nil {
		// Empty polls are observed too: a timed-out round trip is real cost
		// under bursty traffic and feeds the shrink rule (without polluting
		// the per-task cost estimate). The count is frames, not tasks: the
		// pull window (XREADGROUP COUNT) is denominated in stream entries,
		// and a packed entry delivers many tasks for one unit of window —
		// sizing on tasks would starve the window long before the round trip
		// amortizes.
		wk.pullSizer.Observe(time.Since(start), countFrames(envs))
	}
	if len(envs) == 0 {
		if wk.wm != nil {
			wk.wm.IdlePolls.Inc()
		}
		return wk.takeover() // the coordinator owns termination
	}
	if wk.wm != nil {
		wk.wm.Pull.Observe(int64(time.Since(start)))
		wk.wm.PullBatch.Observe(int64(len(envs)))
	}
	if wk.r.tracer != nil {
		wk.pulledAt = time.Now().UnixNano()
	}
	wk.r.busy.Add(1)
	wk.holding = true
	wk.r.pulls.Add(1)
	if wk.idle != nil {
		wk.idle.stamp(wk.w)
	}
	wk.buf, wk.next = envs, 0
	if err := wk.load(); err != nil {
		return fmt.Errorf("load owned keys: %w", err)
	}
	return nil
}

// pull pulls the next window, blocking up to the poll. A standby worker
// blocks off the clock: only when a non-blocking pull finds nothing does it
// deactivate and block, and a delivery activates it again.
func (wk *worker) pull(window int) ([]Env, error) {
	if !wk.standby {
		return wk.tr.PullBatch(wk.w, window, pollTimeout)
	}
	envs, err := wk.tr.PullBatch(wk.w, window, 0)
	if err == nil && len(envs) == 0 {
		wk.proc.Deactivate()
		envs, err = wk.tr.PullBatch(wk.w, window, pollTimeout)
	}
	if len(envs) > 0 {
		wk.proc.Activate()
	}
	return envs, err
}

// gate passes a pool worker through the auto-scaler's gate: a surplus
// worker gives its leases up and stops accruing process time until it is
// readmitted, or released from a finished run.
func (wk *worker) gate() error {
	if wk.ctrl == nil || !wk.ctrl.Gate(wk.w) {
		return nil
	}
	if err := wk.standDown(); err != nil {
		return fmt.Errorf("release leases: %w", err)
	}
	wk.proc.Deactivate()
	if !wk.ctrl.Admit(wk.w) {
		return errReleased
	}
	wk.proc.Activate()
	wk.setEligible(true)
	return nil
}

// execute runs the next buffered delivery, after the progress heartbeat (see
// Transport.Extend; a failure only risks an early reclaim, which recovery
// tolerates; a source's Generate also beats at each emission). It is timed
// only when something reads the time: a traced delivery records its span
// even on error (a trace ending in a failed hop is still reconstructable),
// the flow ledger observes every execution's service time — plus, for
// traced deliveries, the emit→start queue wait their TraceAt stamp carries
// across the wire — and a fusion destination's mean service time takes the
// sample.
func (wk *worker) execute() error {
	env := wk.buf[wk.next]
	wk.next++
	if wk.wm != nil {
		wk.wm.Prefetch.Set(int64(len(wk.buf) - wk.next))
		wk.wm.Tasks.Inc()
	}
	_ = wk.tr.Extend(wk.w)
	c, ok := wk.copies[env.PE]
	if !ok {
		return fmt.Errorf("task for unknown PE %q", env.PE)
	}
	timed := c.flow != nil || c.fuseDst || wk.r.tracer != nil && env.TraceAt != 0
	var start int64
	if timed {
		wk.rt.inlineNs, wk.rt.timing = 0, true
		start = time.Now().UnixNano()
	}
	err := wk.runTask(c, env)
	if timed {
		end := time.Now().UnixNano()
		wk.rt.timing = false
		wk.rt.recordExec(c, env.Task, wk.pulledAt, start, end)
		if c.fuseDst {
			c.observeService(end - start - wk.rt.inlineNs)
		}
	}
	return err
}

// resizeLogger journals one BatchSizer's window changes.
func resizeLogger(d *diagnosis.Diag, w int, which string) func(oldSize, newSize int) {
	return func(oldSize, newSize int) {
		d.Log(diagnosis.EvResize, w, "", fmt.Sprintf("%s %d→%d", which, oldSize, newSize), int64(newSize))
	}
}

// peCopy is one worker's private instance of a PE with what the loop needs
// per task resolved once at build time: its context, its hooks, this
// worker's scope on its namespace and, under exactly-once fencing, the
// namespace's fence.
type peCopy struct {
	pe    core.PE
	ctx   *core.Context
	fin   core.Finalizer     // nil when the PE has no Final hook
	src   core.Source        // nil unless the PE is a source
	fence *state.FencedStore // nil unless the node's state is fenced
	scope *state.FenceScope  // nil unless the node has managed state
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
func (wk *worker) runTask(c *peCopy, env Env) error {
	s, replay := wk.slotFor(env), false
	if s != nil {
		var run bool
		if run, replay = s.admit(wk.w, env); !run {
			return nil
		}
		c.scope.Own(s.table, env.Instance, replay)
	}
	wk.rt.begin(env.Task)
	if c.fence != nil {
		c.scope.SetToken(state.Token{Src: env.Src, Seq: env.Seq})
		defer c.scope.ClearToken()
	}
	var err error
	switch {
	case env.Finalize && c.fence != nil:
		err = wk.finalFenced(c, env)
	case env.Finalize:
		if c.fin != nil {
			err = c.fin.Final(c.ctx)
		}
	case env.Port == "" && c.src == nil:
		err = fmt.Errorf("generate task for non-source PE %q", env.PE)
	case env.Port == "":
		wk.r.tasks.Add(1)
		if err = wk.standDown(); err == nil {
			wk.rt.beat = func() { _ = wk.tr.Extend(wk.w) }
			err = c.src.Generate(c.ctx)
			wk.rt.beat = nil
			wk.setEligible(true)
		}
	default:
		wk.r.tasks.Add(1)
		// Hold mode exists only inside a fenced Final, never here.
		wk.rt.processing = true
		err = c.pe.Process(c.ctx, env.Port, env.Value)
		wk.rt.processing = false
	}
	if s == nil {
		wk.acks.add(env)
	} else if oerr := c.scope.Disown(); err == nil && oerr != nil {
		err = oerr
	} else if err == nil {
		s.done(env)
	}
	if err != nil {
		// Release the deliveries so a failed run does not hang on a counter
		// that can never drain, then surface the PE error.
		_ = wk.acks.flush()
		return fmt.Errorf("PE %s: %w", env.PE, err)
	}
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
func (wk *worker) finalFenced(c *peCopy, env Env) error {
	b := wk.b
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
	applied, err := wk.tr.PushFenced(gate, max(b.window(), 1), held...)
	if err == nil && !applied {
		c.fence.ObserveDrop()
	}
	return err
}

// coordinate owns termination: wait for the drain, flush Finals, then stop
// the run — nothing is pending once the transport is drained, so each worker
// exits on its pull's closed error holding no emission or delivery.
func (r *run) coordinate() {
	err := r.drainAndFinalize()
	if err != nil && !errors.Is(err, errRunAborted) && !r.failed.Load() {
		r.fail(err)
		return
	}
	if !r.failed.Load() {
		r.stop()
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
		var finals []Task
		switch {
		case count == 0:
			// Pooled node: validation guarantees it is managed-state, so a
			// single Final on any worker flushes the shared namespace.
			finals = []Task{r.controlTask(name, -1, true)}
		case n.HasManagedState():
			// One namespace shared by all instances ⇒ Final runs once.
			finals = []Task{r.controlTask(name, 0, true)}
		default:
			for i := 0; i < count; i++ {
				finals = append(finals, r.controlTask(name, i, true))
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

// pollTimeout bounds only liveness: the events a wait is for notify it (a
// push, Done, busy falling to zero), and the poll covers what is not
// signalled — a Redis read parked just after Done, an owned window's commit
// riding a worker's next pull. reclaimPolls of it make the reclaim threshold.
const pollTimeout = 2 * time.Millisecond

// awaitDrain is AwaitDrain on the run's busy and pull counts and its drain
// signal.
func (r *run) awaitDrain() error {
	return AwaitDrain(r.cfg.Transport, r.drained, pollTimeout, &r.failed, &r.busy, &r.pulls)
}

// AwaitDrain blocks until one Pending() read returns zero while no worker
// held a delivery, ran Init, or had a pull return tasks, from before the
// read to after it. It checks when wake is signalled and otherwise every
// poll; a nil wake leaves only the poll. Setting failed aborts the wait.
//
// busy counts the workers in init or holding deliveries, and pulls the pulls
// that returned tasks, each raised after busy. The loop loads pulls, then
// skips the read while busy is above zero, and accepts a zero read only if
// busy is still zero and pulls has not moved. Every push comes from a busy
// worker (or the coordinator itself), so no task was added during an
// accepted read, and a read that sums per-shard counters one shard at a
// time can only overstate what was left. Loading pulls first matters: were
// it loaded after the busy check, a pull returning between the two could
// raise both counts unseen, then push a child, ack and go idle inside the
// read, leaving the child on a shard already read and the ack on one not
// yet read.
func AwaitDrain(tr Transport, wake <-chan struct{}, poll time.Duration, failed *atomic.Bool, busy, pulls *atomic.Int64) error {
	tick := time.NewTicker(poll) // a wake does not reset the poll's phase
	defer tick.Stop()
	for {
		if failed.Load() {
			return errRunAborted
		}
		if pulled := pulls.Load(); busy.Load() == 0 {
			n, err := tr.Pending()
			if err != nil {
				return err
			}
			if n == 0 && busy.Load() == 0 && pulls.Load() == pulled {
				return nil
			}
		}
		select {
		case <-wake:
		case <-tick.C:
		}
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
