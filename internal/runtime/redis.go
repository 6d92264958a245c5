package runtime

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/redisclient"
	"repro/internal/state"
)

// runNonce disambiguates concurrent runs against one server.
var runNonce atomic.Int64

// RedisKeys holds the Redis key names of one execution. The same names are
// used on every shard of the data plane: a key names a partition, the shard
// index says which server holds it, so a single-shard cluster reproduces the
// exact single-server layout.
type RedisKeys struct {
	// Prefix namespaces every key of the run.
	Prefix string
	// Queue is the pool stream, one partition per shard, consumed through
	// Group.
	Queue string
	// Group is the consumer group name.
	Group string
	// PendingKey is the outstanding-task counter, sharded: each shard counts
	// the tasks stored on it and Pending() scatter-gathers the sum.
	PendingKey string
}

// NewRunKeys derives a fresh key namespace for one run.
func NewRunKeys(workflow string, seed int64) RedisKeys {
	prefix := fmt.Sprintf("d4p:%s:%d:%d", workflow, seed, runNonce.Add(1))
	return RedisKeys{
		Prefix:     prefix,
		Queue:      prefix + ":queue",
		Group:      "workers",
		PendingKey: prefix + ":pending",
	}
}

// PrivKey is the private stream of one pinned PE instance (one reclaimable
// partition per shard, consumed through Group by that instance's worker).
func (k RedisKeys) PrivKey(pe string, instance int) string {
	return fmt.Sprintf("%s:priv:%s:%d", k.Prefix, pe, instance)
}

// taskField is the stream entry field carrying the encoded task.
const taskField = "task"

// RedisTransport carries tasks through a sharded Redis data plane: pool
// tasks on per-shard stream partitions consumed by a consumer group
// (consumer "w<index>" per pool worker), pinned tasks on per-instance
// private streams partitioned the same way — the paper's dyn_redis and
// hybrid_redis storage layout behind one Transport, spread over
// N servers by a redisclient.Cluster. An owned PE's tasks ride leased
// partitions instead (see Partitions): one stream per partition on its
// namespace's shard, read only by the pool worker holding the partition's
// lease, in the same XREADGROUP as its pool stream, and acknowledged by that
// worker's lease-checked commit rather than by Ack.
//
// Placement: unfenced pool batches round-robin across shards per packed
// entry; unfenced private frames go to the hash-ring home shard of their
// stream key; fenced batches land entirely on the shard of their task gate
// so the SINKAPPEND transaction stays single-shard (the co-location
// invariant — see PushFenced). Each worker therefore sweeps the other shards
// non-blocking and then blocking-reads its home shard, so work is found
// wherever routing put it; a shard where nothing pushed is still unread
// (unread) is not swept.
//
// Batched pushes are pipelined per shard and frame-packed: one INCRBY for
// the shard's pending counter, one XADD per contiguous run of up to one emit
// window of pool tasks, and one XADD batch frame per private stream share a
// round trip per shard. Acknowledgement is
// entry-range: a stream entry is released on its own shard, by one
// FENCEXACK, only once every task delivered from it has been acked, so the
// consumer group's bookkeeping stays per entry while the worker loop keeps
// acking per task.
type RedisTransport struct {
	cluster      *redisclient.Cluster
	keys         RedisKeys
	plan         Plan
	recoverStale bool
	closed       atomic.Bool

	// rr round-robins unfenced pool entries across shards.
	rr atomic.Uint64

	// unread[s] counts the entries pushed to shard s, on any of its streams,
	// minus those its '>' reads delivered. A push counts its entries before
	// it sends them and a read subtracts what it delivered, so the count is
	// never below what is unread there: every producer of the run's entries
	// is a worker of this transport, and '>' delivers an entry once. A push
	// that does not land (an error, a refused SINKAPPEND) leaves it above,
	// which costs a sweep. PullBatch sweeps no shard whose count is zero.
	unread []atomic.Int64

	// consumers[w] is worker w's consumer name in the group, "w<index>".
	consumers []string

	// frames[w] tracks the stream entries worker w has pulled but not fully
	// acknowledged: (shard, entry ID) → how many of its delivered tasks are
	// still unacked, and the pending-counter weight the entry releases when
	// its FENCEXACK removes it. Entry IDs are only unique per shard, hence the
	// compound key. Each map is touched only by worker w's goroutine
	// (PullBatch and Ack for w run on it), so no locking.
	frames []map[frameKey]*entryState

	// leases[w] throttles worker w's Extend heartbeats (same single-goroutine
	// ownership as frames[w]).
	leases []leaseState

	// owned lists the owned PEs' leased partitions (see Partition), fixed
	// before any worker starts. claimed[w] holds the entries worker w adopted
	// with a partition's lease, which its next pull returns first (same
	// single-goroutine ownership as frames[w]).
	owned   []*Partitions
	claimed [][]Env

	// diag (set via SetDiagnosis; nil keeps the paths cold) journals the
	// recovery lifecycle — per-shard XAUTOCLAIM reclaims and lease
	// extensions — and attributes reclaimed tasks to their PE's Replays
	// counter.
	diag *diagnosis.Diag
}

// SetDiagnosis attaches the diagnosis plane the planners thread through.
func (t *RedisTransport) SetDiagnosis(d *diagnosis.Diag) { t.diag = d }

// frameKey identifies one pulled stream entry: entry IDs are only unique
// per stream and server, so the shard index and stream are part of the
// identity.
type frameKey struct {
	shard  int
	stream string
	id     string
}

// entryState is the per-stream-entry ack bookkeeping.
type entryState struct {
	// remaining counts delivered-but-unacked tasks of the entry.
	remaining int
	// tasks is the entry's task count — what the pending counter loses when
	// the entry's FENCEXACK confirms removal.
	tasks int
}

// leaseState is one worker's heartbeat throttle: the last extension time and
// the poll timeout of its latest pull (which sets the recovery idle
// threshold the heartbeat must stay under).
type leaseState struct {
	last    time.Time
	timeout time.Duration
}

// NewRedisTransport creates the consumer groups on every shard and wraps the
// cluster. With recoverStale, empty-handed pulls XAUTOCLAIM tasks whose
// consumer stopped acknowledging them (at-least-once execution), sweeping
// shard by shard, and workers heartbeat the entries they hold (Extend).
// recoverStale gates nothing else: acknowledgement is the same either way.
func NewRedisTransport(cluster *redisclient.Cluster, keys RedisKeys, plan Plan, recoverStale bool) (*RedisTransport, error) {
	streams := []string{keys.Queue}
	for _, spec := range plan.Workers {
		if spec.Pinned() {
			streams = append(streams, keys.PrivKey(spec.PE, spec.Instance))
		}
	}
	err := cluster.Gather(func(shard int, cl *redisclient.Client) error {
		for _, stream := range streams {
			if err := cl.XGroupCreate(stream, keys.Group, "0"); err != nil {
				return fmt.Errorf("runtime: create consumer group on shard %d: %w", shard, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	frames := make([]map[frameKey]*entryState, len(plan.Workers))
	consumers := make([]string, len(plan.Workers))
	for i := range frames {
		frames[i] = map[frameKey]*entryState{}
		consumers[i] = fmt.Sprintf("w%d", i)
	}
	return &RedisTransport{
		cluster: cluster, keys: keys, plan: plan, recoverStale: recoverStale,
		consumers: consumers, frames: frames, leases: make([]leaseState, len(plan.Workers)),
		claimed: make([][]Env, len(plan.Workers)), unread: make([]atomic.Int64, cluster.NumShards()),
	}, nil
}

// streamFor is the stream key worker w consumes: pool workers share the
// queue partitions, pinned workers own their private stream's partitions.
func (t *RedisTransport) streamFor(w int) string {
	spec := t.plan.Workers[w]
	if spec.Pinned() {
		return t.keys.PrivKey(spec.PE, spec.Instance)
	}
	return t.keys.Queue
}

// homeShard is the shard worker w blocking-reads: pinned workers wait on the
// ring home of their private stream (where unfenced pushes place frames), a
// pool worker holding partitions on the shard of their namespace, and the
// other pool workers spread round-robin so the blocking load covers every
// shard.
func (t *RedisTransport) homeShard(w int) int {
	n := t.cluster.NumShards()
	spec := t.plan.Workers[w]
	if spec.Pinned() {
		return t.cluster.ShardFor(t.keys.PrivKey(spec.PE, spec.Instance))
	}
	for _, ps := range t.owned {
		if ps.nheld[w] > 0 {
			return ps.shard
		}
	}
	return w % n
}

// readSet is what worker w reads on shard: its own stream plus the
// partitions it holds there and, under stale recovery, for those partitions
// in the same order, the (lease key, token) pairs under which the server
// lets w read them. A read thus never delivers a partition's entries to a
// worker whose lease expired or was taken since it last looked: they wait
// for the new holder, which reads them in ID order after the entries it
// adopted (see own.go). Without stale recovery a lease never expires and
// only its holder gives it up, so w's own view is exact and the read
// carries no leases.
func (t *RedisTransport) readSet(w, shard int) (keys, leases []string) {
	keys = []string{t.streamFor(w)}
	for _, ps := range t.owned {
		if ps.shard != shard {
			continue
		}
		for _, p := range ps.Held(w) {
			keys = append(keys, ps.streams[p])
			if ps.ttl > 0 {
				leases = append(leases, ps.leases[p], ps.held[w][p])
			}
		}
	}
	return keys, leases
}

// instanceStream is the stream of a task addressed to instance i of pe: a
// leased partition's when pe is owned, a pinned instance's otherwise.
func (t *RedisTransport) instanceStream(pe string, i int) string {
	if ps := t.partitionsOf(pe); ps != nil {
		return ps.streams[i]
	}
	return t.keys.PrivKey(pe, i)
}

// shardCmds accumulates one shard's slice of a push batch.
type shardCmds struct {
	// counted is the batch's task count landing on the shard — the shard's
	// pending-counter increment.
	counted int
	cmds    [][]string
}

// Push implements Transport. Each involved shard gets one pipeline: its
// pending-counter increment, then its entries, so a task counts as pending
// on its shard before it becomes readable there. A batch spanning shards
// sends those pipelines at once: a task acked on a fast shard may then
// outrun a slow shard's increment, and a sum over shards read meanwhile may
// come out short. The drain rule makes that harmless: AwaitDrain reads
// Pending only while no worker is busy and no pull returned tasks during the
// read, and every push — seed, Init, emit, the pipelined pusher behind its
// flush barrier, Finals — completes before its pusher stops being busy.
//
// Contiguous runs of pool tasks pack into stream entries of at most
// autoBatchMax tasks each (one XADD per emit window instead of one per task),
// round-robined across shards; a push carrying several windows — a pipelined
// emitter's drain — thus lands as several entries, which several consumers
// can pull in parallel. Tasks sharing a private stream ship as a single
// batch frame in one XADD on the stream's home shard.
func (t *RedisTransport) Push(tasks ...Task) error { return t.push(tasks, autoBatchMax) }

// push is Push with at most entryCap pool tasks packed into one stream entry
// (<= 0: unbounded).
func (t *RedisTransport) push(tasks []Task, entryCap int) error {
	if t.closed.Load() {
		return errTransportClosed
	}
	batches, err := t.pushCmds(tasks, entryCap, -1)
	if err != nil || len(batches) == 0 {
		return err
	}
	t.expect(batches)
	if len(batches) == 1 {
		for shard, sc := range batches {
			_, err := t.cluster.Shard(shard).Pipeline(sc.assemble(t.keys.PendingKey))
			return err
		}
	}
	return t.cluster.Gather(func(shard int, cl *redisclient.Client) error {
		sc, ok := batches[shard]
		if !ok {
			return nil
		}
		_, err := cl.Pipeline(sc.assemble(t.keys.PendingKey))
		return err
	})
}

// PushFenced implements Transport. When the gate's hash lives on this
// transport's own server, the whole output batch of the fenced Final —
// pending-counter increment, packed stream entries, private-stream frames —
// rides a single SINKAPPEND transaction gated on the delivery's task-gate
// ledger field inside the state hash. Either the gate records and every task
// lands, or the gate was already recorded (a duplicate Final) and nothing
// does. This is the emit half of exactly-once, atomic with the state fence
// that guards the mutations.
//
// Sharding is what makes the routing here load-bearing: SINKAPPEND is a
// single-server transaction, so the entire batch is placed on the shard that
// owns the gate's hash key — the co-location invariant. The gate, its ledger
// entry (fields of the same state hash) and the sink entries written here
// hash together by construction, because the state backend routes the hash
// by its {namespace} tag and this method routes by the same key through the
// same ring. Whether the two rings agree is checked, not assumed: the shard
// this transport picks must be the server the gate names. State that lives
// elsewhere (the memory backend, another cluster) takes pushAdmitted
// instead, so a gate is never recorded on a server its namespace is not on.
//
// entryCap chunks the batch's pool tasks into stream entries of at most
// that many tasks (the caller's emit window), on either path; without the
// cap the whole Final output would land as one packed entry and its
// downstream fan-out would serialize on whichever single consumer pulls it.
func (t *RedisTransport) PushFenced(gate state.TaskGate, entryCap int, tasks ...Task) (bool, error) {
	if t.closed.Load() {
		return false, errTransportClosed
	}
	gateShard := t.cluster.ShardFor(gate.Key)
	if gate.Addr == "" || t.cluster.Shard(gateShard).Addr() != gate.Addr || t.offShard(tasks, gateShard) {
		return pushAdmitted(gate, func() error { return t.push(tasks, entryCap) })
	}
	batches, err := t.pushCmds(tasks, entryCap, gateShard)
	if err != nil {
		return false, err
	}
	var cmds [][]string
	if sc, ok := batches[gateShard]; ok {
		cmds = sc.assemble(t.keys.PendingKey)
	}
	t.expect(batches)
	// An empty batch still records the gate: a Final with no emissions must
	// be marked done exactly once too.
	return t.cluster.Shard(gateShard).SinkAppend(gate.Key, gate.Field, cmds)
}

// expect counts a push batch's entries as unread on their shards, before
// any of them is sent.
func (t *RedisTransport) expect(batches map[int]*shardCmds) {
	for shard, sc := range batches {
		t.unread[shard].Add(int64(len(sc.cmds)))
	}
}

// delivered subtracts the entries a '>' read of shard delivered from its
// unread count.
func (t *RedisTransport) delivered(shard int, msgs []redisclient.StreamMessages) {
	for _, m := range msgs {
		t.unread[shard].Add(-int64(len(m.Entries)))
	}
}

// offShard reports whether a task bound for a leased partition would land
// away from shard: a partition is read on its own shard only, so such a
// batch cannot ride one single-shard transaction.
func (t *RedisTransport) offShard(tasks []Task, shard int) bool {
	for _, task := range tasks {
		if ps := t.partitionsOf(task.PE); ps != nil && task.Instance >= 0 && ps.shard != shard {
			return true
		}
	}
	return false
}

// assemble prepends the shard's pending-counter increment to its entry
// commands — the increment must execute first within the pipeline so the
// count is visible before any of the shard's tasks are readable.
func (sc *shardCmds) assemble(pendingKey string) [][]string {
	if sc.counted == 0 {
		return sc.cmds
	}
	out := make([][]string, 0, len(sc.cmds)+1)
	out = append(out, []string{"INCRBY", pendingKey, strconv.Itoa(sc.counted)})
	return append(out, sc.cmds...)
}

// pushCmds packs a task batch into per-shard command sequences: the pool
// tasks in order as XADD entries of at most entryCap tasks each (entryCap
// <= 0: one entry), one XADD batch frame per private stream. fixedShard >= 0
// pins every command to that shard (the fenced single-shard path); otherwise
// pool entries round-robin and private frames follow the ring. Pool entries
// are encoded straight from sub-slices of tasks; private tasks (a pinned
// instance's or a leased partition's) are grouped per stream, and a pool
// task that follows one copies the pool tasks once, so the entries the
// private tasks interrupt stay whole.
func (t *RedisTransport) pushCmds(tasks []Task, entryCap, fixedShard int) (map[int]*shardCmds, error) {
	batches := map[int]*shardCmds{}
	shardOf := func(key string) int {
		if fixedShard >= 0 {
			return fixedShard
		}
		return t.cluster.ShardFor(key)
	}
	get := func(shard int) *shardCmds {
		sc := batches[shard]
		if sc == nil {
			sc = &shardCmds{}
			batches[shard] = sc
		}
		return sc
	}
	pool := tasks
	var priv map[string][]Task
	copied := false // pool no longer aliases a prefix of tasks
	for i, task := range tasks {
		if task.Instance < 0 {
			if priv != nil && !copied {
				pool = append(make([]Task, 0, len(pool)+len(tasks)-i), pool...)
				copied = true
			}
			if copied {
				pool = append(pool, task)
			}
			continue
		}
		if priv == nil {
			priv = map[string][]Task{}
			pool = tasks[:i]
		}
		key := t.instanceStream(task.PE, task.Instance)
		priv[key] = append(priv[key], task)
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	xadd := func(shard int, key string, frame []Task) error {
		b, err := codec.AppendBatch(buf.B[:0], frame)
		buf.B = b[:0]
		if err != nil {
			return err
		}
		sc := get(shard)
		sc.cmds = append(sc.cmds, []string{"XADD", key, "*", taskField, string(b)})
		sc.counted += len(frame)
		return nil
	}
	for lo := 0; lo < len(pool); {
		hi := len(pool)
		if entryCap > 0 {
			hi = min(hi, lo+entryCap)
		}
		shard := fixedShard
		if shard < 0 {
			shard = int((t.rr.Add(1) - 1) % uint64(t.cluster.NumShards()))
		}
		if err := xadd(shard, t.keys.Queue, pool[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	for key, group := range priv {
		shard := shardOf(key)
		if ps := t.partitionsOf(group[0].PE); ps != nil {
			shard = ps.shard // never pinned away: a partition is read on its shard only
		}
		if err := xadd(shard, key, group); err != nil {
			return nil, err
		}
	}
	return batches, nil
}

// PullBatch implements Transport. Every worker consumes its stream's
// partitions home-shard-last: a non-blocking sweep over the other shards
// (home+1, home+2, …) picks up work wherever routing placed it, then one
// blocking XREADGROUP on the home shard returns at once if entries are
// already there and otherwise parks for the timeout or until Done. A worker
// holding leased partitions reads them in the same command as its own
// stream, on their namespace's shard, which is then its home, and under
// stale recovery the server serves each only while its lease is still the
// worker's. The sweep skips a shard whose unread count is zero, so a pull
// costs one round trip for the home read plus one per other shard that
// holds entries no read has delivered yet, and an idle pull costs one; a
// zero timeout keeps the home read non-blocking. An empty pull's XAUTOCLAIM
// reclaim, under stale recovery, does not skip a shard: what it takes back
// was delivered already. Each entry may itself be a packed batch frame, so
// the returned batch can exceed max — max is advisory, and bounds each
// stream's share. Entries adopted with a partition's lease come first,
// without a read. A commit the worker staged (Partitions.Stage) rides the
// home read's round trip, ahead of it; on any other path it is sent on its
// own first.
func (t *RedisTransport) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	if t.closed.Load() {
		return nil, errTransportClosed
	}
	home := t.homeShard(w)
	if err := t.flushStaged(w, home); err != nil {
		return nil, err
	}
	if envs := t.claimed[w]; len(envs) > 0 {
		t.claimed[w] = nil
		return envs, t.flushStaged(w, -1)
	}
	if max < 1 {
		max = 1
	}
	consumer := t.consumers[w]
	n := t.cluster.NumShards()
	t.leases[w].timeout = timeout

	var msgs []redisclient.StreamMessages
	shard := home
	for i := 1; i < n; i++ {
		s := (home + i) % n
		if t.unread[s].Load() == 0 {
			continue
		}
		keys, leases := t.readSet(w, s)
		ms, err := t.cluster.Shard(s).XReadGroupLeased(t.keys.Group, consumer, max, 0, keys, leases)
		if err != nil {
			return nil, t.maybeClosed(err)
		}
		if len(ms) > 0 {
			t.delivered(s, ms)
			msgs, shard = ms, s
			break
		}
	}
	if len(msgs) > 0 {
		if err := t.flushStaged(w, -1); err != nil {
			return nil, err
		}
	} else if t.closed.Load() { // Done may have come during the sweep
		return nil, errTransportClosed
	} else {
		ms, err := t.readHome(w, home, max, timeout)
		if err != nil {
			return nil, t.maybeClosed(err)
		}
		t.delivered(home, ms)
		msgs = ms
	}
	reclaimed := false
	if len(msgs) == 0 && t.recoverStale {
		// Reclaim tasks whose consumer stopped acknowledging them (crashed
		// or descheduled), sweeping shard by shard: XAUTOCLAIM moves idle
		// pending entries of the shard's partition into this worker's PEL so
		// the stream's at-least-once guarantee actually holds under failures.
		// A leased partition is swept only by the worker that believes it
		// holds it; as its reads are lease-checked, what a stale holder
		// sweeps there was delivered to the real holder already.
		for i := 0; i < n; i++ {
			s := (home + i) % n
			keys, _ := t.readSet(w, s)
			ms, err := t.cluster.Shard(s).XAutoClaimStreams(t.keys.Group, consumer, reclaimPolls*timeout, max, keys...)
			if err == nil && len(ms) > 0 {
				msgs, shard, reclaimed = ms, s, true
				break
			}
		}
	}
	if len(msgs) == 0 {
		return nil, nil
	}
	envs, err := t.register(w, shard, msgs, reclaimed)
	if reclaimed && t.diag != nil && err == nil {
		entries := 0
		for _, m := range msgs {
			entries += len(m.Entries)
		}
		t.diag.Log(diagnosis.EvReclaim, w, "",
			fmt.Sprintf("%d stalled entries adopted on shard %d", entries, shard), int64(len(envs)))
	}
	return envs, err
}

// flushStaged sends worker w's staged commits on their own, except those on
// shard keep (-1 keeps none), which its home read carries.
func (t *RedisTransport) flushStaged(w, keep int) error {
	for _, ps := range t.owned {
		if ps.shard != keep {
			if err := ps.flush(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// readHome is worker w's blocking read of its home shard, carrying the
// commits it staged there in the same round trip, ahead of the read.
func (t *RedisTransport) readHome(w, home, max int, timeout time.Duration) ([]redisclient.StreamMessages, error) {
	var pre [][]string
	var staged []*Partitions
	for _, ps := range t.owned {
		if sc := &ps.staged[w]; len(sc.blocks) > 0 && ps.shard == home {
			pre, staged = append(pre, sc.argv), append(staged, ps)
		}
	}
	cl := t.cluster.Shard(home)
	keys, leases := t.readSet(w, home)
	if len(pre) == 0 {
		return cl.XReadGroupLeased(t.keys.Group, t.consumers[w], max, timeout, keys, leases)
	}
	replies, msgs, err := cl.XReadGroupLeasedAfter(pre, t.keys.Group, t.consumers[w], max, timeout, keys, leases)
	if err != nil {
		return nil, err
	}
	for i, ps := range staged {
		if err := ps.land(w, ps.unstage(w), replies[i]); err != nil {
			return nil, err
		}
	}
	return msgs, nil
}

// Ack implements Transport at entry-range granularity: each env releases one
// task of its stream entry, and the entry is acknowledged on its own shard
// only when every task delivered from it has been released. Each involved
// shard costs one FENCEXACK carrying the shard's completed entries, on both
// recoverStale settings: the ownership check, the PEL removal and the
// pending-counter decrement are one atomic server-side step, and the counter
// falls only by the weight of the entries the server actually removed. Two
// properties follow:
//
//   - no double decrement: however duplicate or repeated acks interleave,
//     exactly one decrement lands per entry;
//   - no late release: an entry is acknowledged only while this consumer
//     owns it per the server's own PEL, so a delivery XAUTOCLAIM moved to
//     another consumer mid-processing stays pending until its new owner
//     releases it — the coordinator never observes a drained transport
//     while the claimed task is still in flight.
//
// A partially acked frame therefore holds its full weight on the pending
// counter until its last task releases. The decrement lands on the shard
// whose counter the task incremented — the env's Shard, stamped at pull
// time. The command carries no direct decrement, so the client re-sends it
// across a dropped connection (the removal half is idempotent). Deliveries
// of leased partitions are not acked here: their window's commit acks them
// (Partitions.Commit).
func (t *RedisTransport) Ack(w int, envs ...Env) error {
	for _, env := range envs {
		if env.AckID == "" {
			return fmt.Errorf("runtime: redis ack of a %s delivery without an entry ID", env.PE)
		}
	}
	stream, consumer := t.streamFor(w), t.consumers[w]
	perShard := map[int][]doneEntry{}
	for _, d := range t.complete(w, stream, envs) {
		perShard[d.shard] = append(perShard[d.shard], d)
	}
	for shard, done := range perShard {
		ids := make([]string, len(done))
		weights := make([]int64, len(done))
		for i, d := range done {
			ids[i], weights[i] = d.id, int64(d.tasks)
		}
		if _, _, _, err := t.cluster.Shard(shard).FenceXAck(stream, t.keys.Group, consumer, t.keys.PendingKey, 0, ids, weights); err != nil {
			return t.maybeClosed(err)
		}
	}
	return nil
}

// doneEntry is a stream entry whose delivered tasks are all released:
// eligible for acknowledgement on its shard, worth tasks pending-counter
// units on removal.
type doneEntry struct {
	shard int
	id    string
	tasks int
}

// reclaimPolls is the recovery idle threshold in poll timeouts: an
// empty-handed pull reclaims another consumer's pending entry once it has sat
// idle for this many of the puller's poll timeouts. Entries in a healthy
// worker's prefetch buffer stay below it because the worker heartbeats them
// (Extend).
const reclaimPolls = 8

// Extend implements Transport: it refreshes the idle clock of every
// stream entry worker w still owns, via a self-targeted XCLAIM ... JUSTID
// on each shard holding some of them. Packing made this load-bearing — the
// unit XAUTOCLAIM reclaims is a whole frame whose processing time scales
// with its task count, so without a progress heartbeat any frame slower
// than the idle threshold would be claimed away mid-processing, redelivered
// in full to the claimer, go stale there too, and ping-pong between live
// workers forever (the pending counter, decremented only by the FENCEXACK
// that removes an entry, would never drain). With the heartbeat, reclaim
// keys on lack of progress rather than lack of completion: a worker that
// dies or stalls between tasks stops extending and its frames age out
// exactly as before.
//
// The ownership read and the claim are not atomic: an entry claimed away
// between them is stolen back. That one-round-trip race is safe — the
// thief's duplicate execution is absorbed by the state fence, the atomic
// FENCEXACK lets exactly one owner release the entry, and both contenders
// are by construction alive.
// Heartbeats are throttled to a quarter of the idle threshold, so the
// steady-state cost is two round trips per threshold-quarter, not per task.
func (t *RedisTransport) Extend(w int) error {
	if !t.recoverStale || t.closed.Load() {
		return nil
	}
	for _, ps := range t.owned {
		if err := ps.Renew(w); err != nil {
			return t.maybeClosed(err)
		}
	}
	reg := t.frames[w]
	if len(reg) == 0 {
		return nil
	}
	ls := &t.leases[w]
	minIdle := reclaimPolls * ls.timeout
	if minIdle <= 0 {
		return nil
	}
	now := time.Now()
	if !ls.last.IsZero() && now.Sub(ls.last) < minIdle/4 {
		return nil
	}
	ls.last = now
	stream, consumer := t.streamFor(w), t.consumers[w]
	perShard := map[int]int{}
	for fk := range reg {
		if fk.stream == stream {
			perShard[fk.shard]++
		}
	}
	extended := int64(0)
	for shard, count := range perShard {
		cl := t.cluster.Shard(shard)
		owned, err := cl.XPendingIDs(stream, t.keys.Group, consumer, count+256)
		if err != nil {
			return t.maybeClosed(err)
		}
		ids := owned[:0]
		for _, id := range owned {
			if _, ok := reg[frameKey{shard: shard, stream: stream, id: id}]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if _, err := cl.XClaimJustID(stream, t.keys.Group, consumer, 0, ids); err != nil {
			return t.maybeClosed(err)
		}
		extended += int64(len(ids))
	}
	if extended > 0 && t.diag != nil {
		t.diag.Log(diagnosis.EvLease, w, "", "heartbeat", extended)
	}
	return nil
}

// QueueDepths implements Transport: each partition's entry count — the
// pool stream, one "priv:<pe>:<i>" stream per pinned instance and one
// "part:<pe>:<p>" stream per leased partition of an owned PE — per shard
// under an "s<i>:" prefix ("s0:stream", "s1:priv:pe:0", "s1:part:pe:3", …),
// so a hot shard or a skewed partition is visible as such. Each shard's
// counts cost one pipelined round trip; a shard that fails the sample is
// skipped (the gauge set shrinks rather than failing the sample).
func (t *RedisTransport) QueueDepths() map[string]int64 {
	out := map[string]int64{}
	for s := 0; s < t.cluster.NumShards(); s++ {
		names := []string{"stream"}
		cmds := [][]string{{"XLEN", t.keys.Queue}}
		for _, spec := range t.plan.Workers {
			if spec.Pinned() {
				names = append(names, fmt.Sprintf("priv:%s:%d", spec.PE, spec.Instance))
				cmds = append(cmds, []string{"XLEN", t.keys.PrivKey(spec.PE, spec.Instance)})
			}
		}
		for _, ps := range t.owned {
			if ps.shard != s {
				continue
			}
			for p, stream := range ps.streams {
				names = append(names, fmt.Sprintf("part:%s:%d", ps.pe, p))
				cmds = append(cmds, []string{"XLEN", stream})
			}
		}
		replies, err := t.cluster.Shard(s).Pipeline(cmds)
		if err != nil {
			continue
		}
		for i, v := range replies {
			out[fmt.Sprintf("s%d:%s", s, names[i])] = v.Int
		}
	}
	return out
}

// Pending implements Transport: the sum of the per-shard outstanding-task
// counters, read one shard at a time. The sum alone can be torn: a child
// pushed to a shard already read and its parent acked on a shard read later
// add up to zero while the child is queued. It is a termination signal only
// under the coordinator's rule (AwaitDrain): no worker may hold a delivery
// or have a pull return tasks during the read, so no push lands inside it
// and the sum can only overstate what was left.
func (t *RedisTransport) Pending() (int64, error) {
	total, err := t.cluster.SumInt(func(_ int, cl *redisclient.Client) (int64, error) {
		s, ok, err := cl.Get(t.keys.PendingKey)
		if err != nil || !ok {
			return 0, err
		}
		return strconv.ParseInt(s, 10, 64)
	})
	if err != nil {
		return 0, t.maybeClosed(err)
	}
	return total, nil
}

// Done implements Transport and interrupts the reads parked on every shard.
// The cluster stays open: the planner owns it and still needs it for cleanup.
func (t *RedisTransport) Done() error {
	t.closed.Store(true)
	for s := range t.cluster.NumShards() {
		t.cluster.Shard(s).InterruptBlocking()
	}
	return nil
}

// Cleanup removes the run's queue, counter and private-stream keys from
// every shard, and the partition streams and lease keys from their
// namespaces' shards.
func (t *RedisTransport) Cleanup(g *graph.Graph) {
	keys := []string{t.keys.Queue, t.keys.PendingKey}
	for _, spec := range t.plan.Workers {
		if spec.Pinned() {
			keys = append(keys, t.keys.PrivKey(spec.PE, spec.Instance))
		}
	}
	_ = t.cluster.Each(func(_ int, cl *redisclient.Client) error {
		_, _ = cl.Del(keys...)
		return nil
	})
	for _, ps := range t.owned {
		_, _ = ps.cl.Del(append(append([]string(nil), ps.streams...), ps.leases...)...)
	}
}

// maybeClosed maps client errors after shutdown onto the closed sentinel so
// the worker loop unwinds silently instead of reporting a spurious failure.
func (t *RedisTransport) maybeClosed(err error) error {
	if err != nil && t.closed.Load() {
		return errTransportClosed
	}
	return err
}
