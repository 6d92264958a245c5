// Package runtime is the shared execution core every parallel mapping runs
// on. It owns the one worker loop (task pull → PE process → batched emit →
// finalize → acknowledge) and the one termination protocol (a coordinator
// that drains the transport, flushes Final hooks in topological order, then
// poisons the workers), while the mappings shrink to planners: they decide
// how many workers exist, which are pinned to PE instances and which form a
// dynamic pool, and which Transport carries the tasks.
//
// Two transports implement the same contract:
//
//	QueueTransport  in process: one shared global queue for a pool plan
//	                (dyn_multi, dyn_auto_multi), or one bounded box of 256
//	                tasks per pinned worker (multi, mpi)
//	RedisTransport  a Redis stream consumer group for the pool plus one
//	                private stream per pinned instance (dyn_redis, hybrid_redis)
//
// A pool worker holds a private copy of every pooled PE, so on the adaptive
// (Redis) planners an edge that needs no transport — a shuffle from a pooled
// non-source PE into a pooled PE with no state and no Final — fuses: the
// router calls the worker's copy of the destination inline instead of
// pushing a task, while the destination's mean self service time on that
// worker is below the per-task hop price (a push and a pull, priced from the
// worker's emit batch sizer). See fuse.go for the rule and its exactly-once
// argument.
//
// On the same planners emission is pipelined: each worker's batcher owns a
// pusher goroutine, and an emit window that filled faster than the last push
// took is handed to it, so a fast source keeps producing while its previous
// push is on the wire; whatever queued meanwhile ships in one Push. The
// batcher's flush is the barrier every ack, idle gate and exit goes through,
// so a task's children are still pushed before the task is released.
//
// Because termination and finalization are decided by one coordinator
// watching the transport's pending-task count, properties that previously
// had to be rebuilt per mapping — managed-state Final-once, no worker exits
// while tasks are in flight — hold uniformly. In particular the mpi mapping
// supports managed keyed state through exactly the same barrier as everyone
// else.
package runtime

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/state"
)

// Task is one schedulable unit on a transport. It is the codec task type, so
// every transport — in-process or Redis — ships the same shape.
type Task = codec.Task

// Env is one delivered task plus its transport acknowledgement handle.
type Env struct {
	Task
	// AckID identifies the delivery for transports with explicit
	// acknowledgement (the Redis stream entry ID); empty elsewhere.
	AckID string
	// Shard is the data-plane shard the delivery was pulled from, for
	// transports that partition their queues across servers. Entry IDs are
	// only unique per shard, so (Shard, AckID) is the delivery identity;
	// single-server and in-process transports leave it 0.
	Shard int
}

// Transport moves tasks between workers. Implementations must be safe for
// concurrent use by all workers plus the coordinator. The interface is the
// whole contract: the worker loop and the coordinator call nothing else, so a
// capability one transport lacks is a trivial method there (Extend returns
// nil where nothing reclaims by idle time), never an optional interface the
// engine has to probe for.
//
// The pending-count contract is what the termination protocol rests on:
// Push counts every non-poison task as pending *before* it becomes visible
// to any consumer, and Ack releases it only after the worker has pushed the
// task's children. Pending() == 0 therefore implies no queued or in-flight
// work anywhere. Pulled-but-unacknowledged tasks — including everything
// sitting in a worker's prefetch buffer — therefore still count as pending,
// which is what keeps the coordinator's drain honest under batched consumes.
type Transport interface {
	// Push enqueues tasks for their destinations: Instance >= 0 addresses a
	// pinned (PE, instance) worker, Instance < 0 the shared pool. Batched
	// callers pass several tasks at once so implementations can amortize
	// synchronization (one lock hold, one pipelined round trip).
	Push(tasks ...Task) error
	// PushFenced is Push gated on a fenced delivery's task gate — the one
	// path of a fenced Final's output. Either the gate records and every
	// task lands (applied), or the gate was already recorded by another
	// execution of the delivery and nothing lands. A transport whose queues
	// live on the gate's server records the gate and pushes in one
	// server-side transaction (SINKAPPEND on Redis), so a worker killed
	// before the call leaves neither behind; any other transport admits the
	// gate through the state store first and pushes after (pushAdmitted).
	// entryCap bounds how many pool tasks pack into one queue entry, so the
	// batch keeps the normal emit path's delivery granularity downstream;
	// <= 0 means unbounded, and transports that do not pack ignore it.
	PushFenced(gate state.TaskGate, entryCap int, tasks ...Task) (applied bool, err error)
	// PullBatch blocks up to timeout for the first task addressed to worker
	// w, then returns it together with whatever is already queued, up to max
	// tasks, without further waiting (nil on timeout). max is advisory: a
	// transport whose wire format packs several tasks into one frame may
	// return more. Where the dequeue is reversible (the in-process queue and
	// boxes) a batch never extends past a poison pill — the pill ends its
	// batch — so one worker cannot swallow siblings' pills;
	// the Redis stream, whose deliveries are irreversible, may return
	// several pills at once and the worker loop re-routes the surplus.
	PullBatch(w, max int, timeout time.Duration) ([]Env, error)
	// Extend is worker w's progress heartbeat, called between the tasks of a
	// pulled batch. A transport that reclaims deliveries by idle time
	// refreshes the idle clock of every entry w still owns, so recovery
	// fires on stalled workers and not on healthy ones working through a
	// packed frame slower than the idle threshold. It must be cheap when
	// called every task (implementations self-throttle) and is best-effort:
	// a failure only risks an early reclaim, which recovery tolerates.
	Extend(w int) error
	// Ack releases pulled tasks after they are fully processed (children
	// already pushed). A multi-task batch is released in one amortized
	// operation: a single pipelined round trip on Redis, one atomic
	// adjustment in process.
	Ack(w int, envs ...Env) error
	// Pending reports the queued + in-flight task count.
	Pending() (int64, error)
	// QueueDepths samples per-queue depth gauges for telemetry: the global
	// queue's and each pinned box's length, pool and private stream entry
	// counts. Keys name the queue ("queue", "box:<pe>:<i>", "stream", …);
	// queues that cannot be sampled are skipped.
	QueueDepths() map[string]int64
	// Done shuts the transport down. In process, blocked Push and PullBatch
	// calls return at once; on Redis, a blocked PullBatch returns within its
	// poll timeout. From then on pulls fail with the closed error (IsClosed)
	// and other operations may. It must be idempotent.
	Done() error
}

// errTransportClosed reports an operation on a transport after Done. The
// worker loop treats it as a shutdown signal, not a workflow failure.
var errTransportClosed = errors.New("runtime: transport closed")

// IsClosed reports whether err is the transport-shutdown sentinel.
func IsClosed(err error) bool { return errors.Is(err, errTransportClosed) }

// pushAdmitted is PushFenced for a transport that does not share a server
// with the gate: admit the gate through the state store, then push. Between
// the two calls it is at-most-once: a worker killed there loses the Final's
// output, because the replay finds the gate recorded (emissions cannot be
// retracted, so the inverse order would double them at the sink instead).
// The aggregates survive in the managed store either way.
func pushAdmitted(gate state.TaskGate, push func() error) (bool, error) {
	first, err := gate.Admit()
	if err != nil || !first {
		return false, err
	}
	return true, push()
}

// WorkerSpec describes one worker slot of a plan. The zero value is a pool
// worker; a non-empty PE pins the worker to that single (PE, instance).
type WorkerSpec struct {
	PE       string
	Instance int
}

// Pinned reports whether the worker runs a single dedicated PE instance.
func (s WorkerSpec) Pinned() bool { return s.PE != "" }

// Plan is a mapping's placement decision: the worker slots and the per-node
// instance discipline the router follows.
type Plan struct {
	// Workers lists the worker slots. Pool workers must precede pinned ones
	// so pool indices align with autoscale controller slots.
	Workers []WorkerSpec
	// Pool is the number of pool workers (the prefix of Workers).
	Pool int
	// Instances maps each node to its pinned instance count; 0 means the
	// node runs on the shared pool (any worker, Instance -1 routing).
	Instances map[string]int

	// workerOf resolves a pinned (PE, instance) to its worker index.
	workerOf map[string][]int
}

// NewPlan assembles a plan from worker specs (pool workers first) and the
// per-node instance map, wiring the pinned-worker index. It panics when a
// pool worker follows a pinned one: pool indices must be 0..Pool-1 to align
// with autoscale controller slots and Redis consumer names, so a violating
// plan is a planner programming error caught at composition time.
func NewPlan(workers []WorkerSpec, instances map[string]int) Plan {
	p := Plan{Workers: workers, Instances: instances, workerOf: map[string][]int{}}
	for w, spec := range p.Workers {
		if !spec.Pinned() {
			if w != p.Pool {
				panic(fmt.Sprintf("runtime: plan has pool worker at slot %d after pinned workers; pool workers must come first", w))
			}
			p.Pool++
			continue
		}
		ranks := p.workerOf[spec.PE]
		for len(ranks) <= spec.Instance {
			ranks = append(ranks, -1)
		}
		ranks[spec.Instance] = w
		p.workerOf[spec.PE] = ranks
	}
	return p
}

// WorkerFor resolves the worker index of a pinned (PE, instance).
func (p Plan) WorkerFor(pe string, instance int) (int, bool) {
	ranks := p.workerOf[pe]
	if instance < 0 || instance >= len(ranks) || ranks[instance] < 0 {
		return 0, false
	}
	return ranks[instance], true
}

// PinnedPlan places every PE instance of the allocation on its own dedicated
// worker — the static disciplines (multi, mpi).
func PinnedPlan(g *graph.Graph, alloc map[string]int) Plan {
	var workers []WorkerSpec
	instances := make(map[string]int, len(alloc))
	for _, n := range g.Nodes() {
		count := alloc[n.Name]
		instances[n.Name] = count
		for i := 0; i < count; i++ {
			workers = append(workers, WorkerSpec{PE: n.Name, Instance: i})
		}
	}
	return NewPlan(workers, instances)
}

// PoolPlan places every node on a shared pool of n workers — the dynamic
// disciplines (dyn_multi, dyn_redis and their auto variants).
func PoolPlan(g *graph.Graph, n int) Plan {
	instances := make(map[string]int, len(g.Nodes()))
	for _, node := range g.Nodes() {
		instances[node.Name] = 0
	}
	return NewPlan(make([]WorkerSpec, n), instances)
}

// NodeHash gives a stable per-node seed component. It is the single home of
// the FNV mix formerly copy-pasted across the mapping packages.
func NodeHash(name string) uint32 { return graph.Hash32(name) }

// fenceMix folds 64-bit words into an FNV-1a-style provenance hash for the
// exactly-once fence. The result is never zero (zero means "unstamped").
func fenceMix(parts ...uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= (p >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Salts separating the three provenance families: seeded generate tasks,
// coordinator-issued finalize tasks, and emitted children (per out-edge).
const (
	fenceSeedSalt  = 0x5eed
	fenceFinalSalt = 0xf17a
	fenceChildSalt = 0xc41d
)

// seedSrc is the provenance of a source node's seeded generate task. It
// depends only on (node, instance), so a replayed generate task keeps its
// identity and its re-emitted children keep theirs.
func seedSrc(node string, instance int) uint64 {
	return fenceMix(uint64(NodeHash(node)), fenceSeedSalt, uint64(instance)+1)
}

// finalSrc is the provenance of a coordinator-issued Finalize task.
func finalSrc(node string, instance int) uint64 {
	return fenceMix(uint64(NodeHash(node)), fenceFinalSalt, uint64(instance)+1)
}

// initSrc is the provenance of a worker's Init-hook emissions. It is
// per-worker — Init runs once per worker copy by design, so two workers'
// Init emissions must never be fenced against each other.
func initSrc(worker int) uint64 {
	return fenceMix(uint64(worker)+1, fenceSeedSalt, fenceChildSalt)
}

// edgeSalt is the stable identity of one out-edge in child provenances. It
// hashes the endpoints and ports rather than a closure-local index so that
// emissions from different nodes sharing one parent identity (the per-worker
// Init provenance) can never collide.
func edgeSalt(from, fromPort, to, toPort string) uint64 {
	return fenceMix(uint64(NodeHash(from)), uint64(NodeHash(fromPort)),
		uint64(NodeHash(to)), uint64(NodeHash(toPort)), fenceChildSalt)
}

// childSrc derives an emitted task's provenance from its parent's identity
// and the emitting edge — deterministic across re-executions of the parent
// on any worker, which is what makes duplicate children fungible to the
// managed-state fence.
func childSrc(parentSrc, parentSeq, edgeSalt uint64) uint64 {
	return fenceMix(parentSrc, parentSeq, edgeSalt)
}

// InstanceSeed mixes a PE name and instance index into a seed component, so
// pinned instances of one PE draw distinct deterministic random streams.
func InstanceSeed(name string, idx int) uint32 {
	const prime = 16777619
	h := graph.Hash32(name)
	h ^= uint32(idx)
	h *= prime
	return h
}

// ValidateDynamic rejects workflow features plain pool scheduling cannot
// honor, mirroring the paper's limitation statement ("dynamic scheduling
// exclusively manages stateless PEs and lacks support for grouping") — with
// one extension beyond the paper: nodes whose state is *managed* (package
// state) are accepted, because their state lives in a shared atomic store
// rather than in worker-local PE fields, so any worker may process any task
// and the coordinator flushes each managed node's Final exactly once.
func ValidateDynamic(g *graph.Graph, technique string) error {
	if g.HasUnmanagedStateful() {
		return fmt.Errorf("%s: workflow %s has stateful PEs with unmanaged field state; dynamic scheduling supports only stateless or managed-state PEs (declare SetKeyedState/SetSingletonState, or use hybrid_redis or multi)", technique, g.Name)
	}
	for _, e := range g.Edges() {
		if e.Grouping.Kind == graph.Shuffle {
			continue
		}
		dst := g.Node(e.To)
		if e.Grouping.Kind == graph.OneToAll {
			// Broadcast needs per-instance delivery, which a dynamic pool
			// cannot express regardless of how the state is managed.
			return fmt.Errorf("%s: edge %s→%s uses one-to-all grouping; dynamic scheduling has no instance identity to broadcast to (use hybrid_redis or multi)", technique, e.From, e.To)
		}
		if dst.HasManagedState() {
			// Routing affinity is unnecessary: keyed/global semantics come
			// from the shared store, not from which worker runs the task.
			continue
		}
		return fmt.Errorf("%s: edge %s→%s uses %s grouping into a PE without managed state; dynamic scheduling supports only the default shuffle grouping (use hybrid_redis or multi)", technique, e.From, e.To, e.Grouping.Kind)
	}
	for _, n := range g.Nodes() {
		if _, ok := n.Prototype.(core.Finalizer); ok && !n.HasManagedState() {
			return fmt.Errorf("%s: PE %s implements Final without managed state; per-instance finalization requires a stateful mapping (hybrid_redis or multi)", technique, n.Name)
		}
	}
	return nil
}
