package runtime

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/diagnosis"
	"repro/internal/redisclient"
	"repro/internal/resp"
	"repro/internal/state"
)

// PartitionSpec asks a transport to carry one owned PE's tasks on leased
// partitions (see own.go): the PE, the partition count a fresh namespace
// gets, the hash holding its namespace and the address of that hash's
// server, and whether the run resumes that namespace. A resumed namespace
// that records a count keeps it (see Partition), and none of its partitions
// starts complete (see Acquire).
type PartitionSpec struct {
	PE            string
	Parts         int
	HomeKey, Home string
	Resume        bool
}

// Partitions is one owned PE's leased partitions on a RedisTransport. Each
// partition is a stream whose key carries the namespace's hash tag, so it
// sits on the shard of the state hash, beside its lease key. Only the worker
// holding a partition's lease reads its stream; it acquires the lease with
// SET NX, and commits each window of the partition — the dirty keys' final
// values, the raised high-water marks and the acks — in one SINKAPPEND LEASE
// transaction that lands only while the lease is still its own.
//
// Partitions owns a holding from its acquisition to its end. holder spreads
// the leases: a worker claims a free partition's slot with a
// compare-and-swap before it asks for the lease; the lease keys decide who
// really holds what. held is each worker's own view, with its tokens, and
// nheld its size. A holding ends in one place, forget, on a release or when
// a read, a commit or a renewal finds the lease lost; the worker drops the
// tables of its ended holdings before it next acquires (drainEnded). A
// staged commit lands before any direct commit of the same worker.
//
// The partition count is the namespace's: the marks are per partition, so a
// fresh run records its count (state.PartsField) before any commit, and a
// resumed run adopts the recorded count, whatever its own pool size asks
// for.
//
// The per-worker fields are touched only by that worker's goroutine, like
// RedisTransport.frames.
type Partitions struct {
	t       *RedisTransport
	pe      string
	shard   int
	cl      *redisclient.Client
	home    string        // the namespace's state hash
	streams []string      // partition p's stream
	leases  []string      // partition p's lease key
	ttl     time.Duration // a lease's TTL; 0 (no expiry) without stale recovery
	resume  bool          // the run resumes the namespace: no partition starts complete

	used    []atomic.Bool  // partition → it has had a holder in this run
	holder  []atomic.Int32 // partition → the worker holding or claiming it, plus one; 0 when free
	held    [][]string     // worker → partition → its lease token, "" when not held
	nheld   []int          // worker → how many partitions it holds
	list    [][]int        // worker → Held's storage, reused
	ended   [][]int        // worker → partitions whose holding ended, not yet drained
	renewed []time.Time    // worker → when all its leases were last refreshed
	staged  []stagedCommit // worker → its commit waiting for its next pull, none while it has no blocks
	args    [][]string     // worker → the argument storage of its reads and direct commits, reused
}

// leaseSeq makes lease tokens unique per acquisition.
var leaseSeq atomic.Int64

// Partition implements Transport: when the PE's namespace lives on this
// transport's cluster, it lays out partition streams beside the namespace's
// hash and returns them; otherwise it returns nil and the PE keeps the pool.
// One pipelined round trip creates spec.Parts groups and, on a fresh run,
// records the count in the namespace or, on a resumed one, reads the count
// recorded there. A recorded count that differs — a resumed run on another
// pool size — is adopted, at the cost of one more round trip that fixes the
// streams up, and journaled; a resumed namespace that records none gets
// spec.Parts in that round trip.
func (t *RedisTransport) Partition(spec PartitionSpec) (*Partitions, error) {
	open := strings.IndexByte(spec.HomeKey, '{')
	end := strings.IndexByte(spec.HomeKey, '}')
	if spec.Parts < 1 || open < 0 || end <= open+1 {
		return nil, nil
	}
	shard := t.cluster.ShardFor(spec.HomeKey)
	if cl := t.cluster.Shard(shard); cl.Addr() != spec.Home {
		return nil, nil
	}
	tag := spec.HomeKey[open : end+1]
	cl := t.cluster.Shard(shard)
	stream := func(p int) string { return fmt.Sprintf("%s:part:%s%s:%d", t.keys.Prefix, spec.PE, tag, p) }
	create := func(p int) []string { return []string{"XGROUP", "CREATE", stream(p), t.keys.Group, "0", "MKSTREAM"} }
	record := []string{"HSET", spec.HomeKey, state.PartsField, strconv.Itoa(spec.Parts)}
	cmds := [][]string{record}
	if spec.Resume {
		cmds[0] = []string{"HGET", spec.HomeKey, state.PartsField}
	}
	for p := range spec.Parts {
		cmds = append(cmds, create(p))
	}
	replies, err := cl.Pipeline(cmds)
	if err != nil {
		return nil, fmt.Errorf("runtime: create partition groups of %s: %w", spec.PE, err)
	}
	parts := spec.Parts
	var fix [][]string
	switch {
	case !spec.Resume:
	case replies[0].IsNull():
		fix = append(fix, record)
	default:
		if parts, err = strconv.Atoi(replies[0].Str); err != nil || parts < 1 {
			return nil, fmt.Errorf("runtime: partition count %q recorded for %s is not a count", replies[0].Str, spec.PE)
		}
	}
	for p := spec.Parts; p < parts; p++ {
		fix = append(fix, create(p))
	}
	for p := parts; p < spec.Parts; p++ {
		fix = append(fix, []string{"DEL", stream(p)})
	}
	if len(fix) > 0 {
		if _, err := cl.Pipeline(fix); err != nil {
			return nil, fmt.Errorf("runtime: adopt the partition count of %s: %w", spec.PE, err)
		}
	}
	if parts != spec.Parts && t.diag != nil {
		t.diag.Log(diagnosis.EvPartition, -1, spec.PE, fmt.Sprintf("adopted the namespace's %d partitions instead of %d", parts, spec.Parts), int64(parts))
	}
	workers := len(t.plan.Workers)
	ps := &Partitions{t: t, pe: spec.PE, shard: shard, cl: cl, home: spec.HomeKey, resume: spec.Resume,
		used: make([]atomic.Bool, parts), holder: make([]atomic.Int32, parts), held: make([][]string, workers),
		nheld: make([]int, workers), list: make([][]int, workers), ended: make([][]int, workers),
		renewed: make([]time.Time, workers), staged: make([]stagedCommit, workers), args: make([][]string, workers)}
	if t.recoverStale {
		ps.ttl = reclaimPolls * pollTimeout
	}
	for p := range parts {
		ps.streams = append(ps.streams, stream(p))
		ps.leases = append(ps.leases, fmt.Sprintf("%s:lease:%s%s:%d", t.keys.Prefix, spec.PE, tag, p))
	}
	for w := range ps.held {
		ps.held[w] = make([]string, parts)
	}
	t.owned = append(t.owned, ps)
	return ps, nil
}

// Parts is the partition count: the namespace's recorded one, when it has
// one.
func (ps *Partitions) Parts() int { return len(ps.streams) }

// partitionsOf is pe's partitions, nil when pe is not owned.
func (t *RedisTransport) partitionsOf(pe string) *Partitions {
	for _, ps := range t.owned {
		if ps.pe == pe {
			return ps
		}
	}
	return nil
}

// Held lists the partitions worker w holds, in ascending order. The list is
// valid until w's next call; the caller must not modify it.
func (ps *Partitions) Held(w int) []int {
	list := ps.list[w][:0]
	for p, tok := range ps.held[w] {
		if tok != "" {
			list = append(list, p)
		}
	}
	ps.list[w] = list
	return list
}

// Holds reports whether worker w holds partition p.
func (ps *Partitions) Holds(w, p int) bool { return ps.held[w][p] != "" }

// claim marks up to k free partitions as worker w's — its stripe (p ≡ w mod
// pool) first — and returns them, for w to acquire. A partition w still
// believes it holds is not free to it: it finds out whether it lost the
// lease at its next read, commit or renewal.
func (ps *Partitions) claim(w, k, pool int) []int {
	var out []int
	for pass := 0; pass < 2 && len(out) < k; pass++ {
		for p := range ps.holder {
			if len(out) < k && (p%pool == w%pool) == (pass == 0) && !ps.Holds(w, p) && ps.holder[p].CompareAndSwap(0, int32(w)+1) {
				out = append(out, p)
			}
		}
	}
	return out
}

// others lists the partitions other workers hold, for w to take over.
func (ps *Partitions) others(w int) []int {
	var out []int
	for p := range ps.holder {
		if h := ps.holder[p].Load(); h != 0 && h != int32(w)+1 && !ps.Holds(w, p) {
			out = append(out, p)
		}
	}
	return out
}

// drainEnded returns the partitions whose holding by worker w ended since the
// last drain, and forgets them. The list is valid until another of w's
// holdings ends.
func (ps *Partitions) drainEnded(w int) []int {
	ended := ps.ended[w]
	ps.ended[w] = ended[:0]
	return ended
}

// Acquire tries to take the leases of partitions cand — claimed by worker w,
// or held by others when w takes them over — for w with one pipelined SET
// NX and returns those it got; a claim that got no lease is freed. A new
// holder then claims each partition's pending entries — deliveries its last
// holder pulled but never committed — which its next pull returns first.
// fresh lists those of got that never had a holder, on a run that does not
// resume: the namespace was dropped at setup and only a holder writes a
// partition's keys and marks, so none of them exists yet
// (state.Table.Complete).
func (ps *Partitions) Acquire(w int, cand []int) (got, fresh []int, err error) {
	if len(cand) == 0 {
		return nil, nil, nil
	}
	toks := make([]string, len(cand))
	cmds := make([][]string, len(cand))
	for i, p := range cand {
		toks[i] = ps.t.keys.Prefix + ":w" + strconv.Itoa(w) + ":" + strconv.FormatInt(leaseSeq.Add(1), 36)
		cmds[i] = []string{"SET", ps.leases[p], toks[i], "NX"}
		if ps.ttl > 0 {
			cmds[i] = append(cmds[i], "PX", strconv.FormatInt(max(ps.ttl.Milliseconds(), 1), 10))
		}
	}
	replies, err := ps.cl.Pipeline(cmds)
	if err != nil {
		return nil, nil, ps.t.maybeClosed(err)
	}
	if ps.nheld[w] == 0 { // every lease w will hold is new
		ps.renewed[w] = time.Now()
	}
	var streams []string // those of got that had a holder before: only they can hold pending entries
	for i, v := range replies {
		p := cand[i]
		if v.IsNull() {
			ps.holder[p].CompareAndSwap(int32(w)+1, 0)
			continue
		}
		ps.holder[p].Store(int32(w) + 1)
		got = append(got, p)
		if ps.used[p].Swap(true) {
			streams = append(streams, ps.streams[p])
		} else if !ps.resume {
			fresh = append(fresh, p)
		}
		ps.held[w][p] = toks[i]
		ps.nheld[w]++
	}
	if len(got) == 0 {
		return nil, nil, nil
	}
	if len(streams) == 0 {
		return got, fresh, nil
	}
	msgs, err := ps.cl.XAutoClaimStreams(ps.t.keys.Group, ps.t.consumers[w], 0, 1<<20, streams...)
	if err != nil {
		return got, fresh, ps.t.maybeClosed(err)
	}
	envs, err := ps.t.register(w, ps.shard, msgs, false)
	if err != nil {
		return got, fresh, err
	}
	ps.t.claimed[w] = append(ps.t.claimed[w], envs...)
	return got, fresh, nil
}

// Read fetches, for each partition parts[i] worker w holds, the fields[i]
// of the namespace's hash: one lease-checked SINKAPPEND LEASE with one read
// block per partition. vals[i] and found[i] run parallel to fields[i]. A
// partition whose lease turns out lost yields nothing, and its holding ends
// (forget).
func (ps *Partitions) Read(w int, parts []int, fields [][]string) (vals [][]string, found [][]bool, err error) {
	c := redisclient.NewLeaseCommit(ps.args[w], ps.home, ps.ttl)
	for i, p := range parts {
		c.Block(ps.leases[p], ps.held[w][p])
		if len(fields[i]) > 0 {
			c.Sub("HGET")
			c.Arg(fields[i]...)
		}
	}
	ps.args[w] = c.Argv()
	v, err := ps.cl.Do(ps.args[w]...)
	if err != nil {
		return nil, nil, ps.t.maybeClosed(err)
	}
	applied, replies := redisclient.LeaseReplies(v)
	if len(applied) != len(parts) {
		return nil, nil, fmt.Errorf("runtime: lease read of %s: %d replies for %d partitions", ps.pe, len(applied), len(parts))
	}
	vals, found = make([][]string, len(parts)), make([][]bool, len(parts))
	for i, p := range parts {
		if !applied[i] {
			ps.lose(w, p, 0)
			continue
		}
		vals[i], found[i] = make([]string, len(replies[i])), make([]bool, len(replies[i]))
		for j, r := range replies[i] {
			vals[i][j], found[i][j] = r.Str, !r.IsNull()
		}
	}
	return vals, found, nil
}

// PartCommit is one partition's share of a commit: the dirty keys' final
// values and raised marks, the deliveries to acknowledge, and whether the
// lease is released after them.
type PartCommit struct {
	Part    int
	Writes  []state.Write
	Envs    []Env
	Release bool
}

// Commit lands worker w's blocks in one SINKAPPEND LEASE transaction on the
// namespace's shard, one block per partition, after w's staged commit, which
// it sends on its own first. Each block applies only while its lease is
// still w's — then it also refreshes the lease's TTL — and acknowledges its
// entries under FENCEXACK's ownership rule. A block whose lease was lost
// applies nothing; that holding ends, as a released one does. A block of a
// partition the staged commit found lost is not sent.
func (ps *Partitions) Commit(w int, blocks []PartCommit) error {
	if err := ps.flush(w); err != nil {
		return err
	}
	if slices.ContainsFunc(blocks, func(b PartCommit) bool { return !ps.Holds(w, b.Part) }) {
		blocks = slices.DeleteFunc(slices.Clone(blocks), func(b PartCommit) bool { return !ps.Holds(w, b.Part) })
	}
	if len(blocks) == 0 {
		return nil
	}
	ps.args[w] = ps.commitArgv(ps.args[w], w, blocks)
	v, err := ps.cl.Do(ps.args[w]...)
	if err != nil {
		return err
	}
	return ps.land(w, blocks, v)
}

// Stage is Commit handed to worker w's next pull, which carries it in the
// same round trip as its read of the namespace's shard — the commit runs
// first, so nothing is read, and the worker does not block, before it lands.
// The staged commit keeps its own copy of blocks: the caller may reuse their
// storage at once.
func (ps *Partitions) Stage(w int, blocks []PartCommit) {
	if len(blocks) > 0 {
		sc := &ps.staged[w]
		sc.argv, sc.blocks = ps.commitArgv(sc.argv, w, blocks), append(sc.blocks[:0], blocks...)
	}
}

// stagedCommit is a commit waiting for its worker's next pull.
type stagedCommit struct {
	argv   []string
	blocks []PartCommit
}

// unstage takes worker w's staged commit off its slot, for its reply to
// land, and returns its blocks, none when nothing is staged. They stay valid
// until w stages again.
func (ps *Partitions) unstage(w int) []PartCommit {
	sc := &ps.staged[w]
	blocks := sc.blocks
	sc.blocks = blocks[:0]
	return blocks
}

// flush sends worker w's staged commit on its own, if there is one.
func (ps *Partitions) flush(w int) error {
	blocks := ps.unstage(w)
	if len(blocks) == 0 {
		return nil
	}
	v, err := ps.cl.Do(ps.staged[w].argv...)
	if err != nil {
		return ps.t.maybeClosed(err)
	}
	return ps.land(w, blocks, v)
}

// commitArgv builds the SINKAPPEND LEASE of worker w's blocks in buf's
// storage.
func (ps *Partitions) commitArgv(buf []string, w int, blocks []PartCommit) []string {
	t := ps.t
	c := redisclient.NewLeaseCommit(buf, ps.home, ps.ttl)
	for _, b := range blocks {
		stream := ps.streams[b.Part]
		c.Block(ps.leases[b.Part], ps.held[w][b.Part])
		if len(b.Writes) > 0 {
			c.Sub("HSET")
			for _, wr := range b.Writes {
				c.Arg(wr.Key, wr.Value)
			}
		}
		if done := t.complete(w, stream, b.Envs); len(done) > 0 {
			c.Sub("XACK")
			c.Arg(stream, t.keys.Group, t.consumers[w], t.keys.PendingKey)
			for _, d := range done {
				c.Arg(d.id, strconv.Itoa(d.tasks))
			}
		}
		if b.Release {
			c.Sub("DEL")
			c.Arg(ps.leases[b.Part])
		}
	}
	return c.Argv()
}

// land books the reply v of worker w's commit of blocks: the holding of a
// partition whose block found its lease lost ends, and so does a released
// one's.
func (ps *Partitions) land(w int, blocks []PartCommit, v resp.Value) error {
	applied, _ := redisclient.LeaseReplies(v)
	if len(applied) != len(blocks) {
		return fmt.Errorf("runtime: lease commit of %s: %d replies for %d partitions", ps.pe, len(applied), len(blocks))
	}
	if len(blocks) == ps.nheld[w] { // it refreshed every lease w holds
		ps.renewed[w] = time.Now()
	}
	for i, b := range blocks {
		switch {
		case !applied[i]:
			ps.lose(w, b.Part, len(b.Envs))
		case b.Release:
			ps.forget(w, b.Part)
		}
	}
	return nil
}

// lose ends worker w's holding of partition p, whose lease it found taken,
// and journals the n deliveries whose effects it thereby dropped.
func (ps *Partitions) lose(w, p, n int) {
	ps.forget(w, p)
	if ps.t.diag != nil {
		ps.t.diag.Log(diagnosis.EvPartition, w, ps.pe, fmt.Sprintf("lease of partition %d lost: commit of %d tasks dropped", p, n), int64(n))
	}
}

// forget is the one place where worker w's holding of partition p ends: it
// drops w's lease and the bookkeeping of the entries w pulled from p, frees
// p's holder slot unless another worker has it by now, and lists p among
// w's ended holdings, whose tables w drops before it next acquires.
func (ps *Partitions) forget(w, p int) {
	if ps.held[w][p] != "" {
		ps.nheld[w]--
	}
	ps.held[w][p] = ""
	ps.holder[p].CompareAndSwap(int32(w)+1, 0)
	ps.ended[w] = append(ps.ended[w], p)
	reg := ps.t.frames[w]
	for fk := range reg {
		if fk.stream == ps.streams[p] {
			delete(reg, fk)
		}
	}
}

// Renew refreshes worker w's leases when a quarter of their TTL has passed
// since a commit or renewal last refreshed all of them, with one empty
// commit per partition; a lease it finds lost ends its holding. Without a
// TTL it does nothing.
func (ps *Partitions) Renew(w int) error {
	if ps.ttl <= 0 || time.Since(ps.renewed[w]) < ps.ttl/4 {
		return nil
	}
	held := ps.Held(w)
	blocks := make([]PartCommit, len(held))
	for i, p := range held {
		blocks[i].Part = p
	}
	return ps.Commit(w, blocks)
}

// Takeover tries, under stale recovery, to take the leases of partitions
// cand that other workers hold: only a lease that expired — its holder
// stalled past the TTL — is free to take. It returns those it got.
func (ps *Partitions) Takeover(w int, cand []int) ([]int, error) {
	if ps.ttl <= 0 {
		return nil, nil
	}
	got, _, err := ps.Acquire(w, cand) // a partition another worker held is never fresh
	if len(got) > 0 && ps.t.diag != nil {
		ps.t.diag.Log(diagnosis.EvPartition, w, ps.pe, fmt.Sprintf("took over expired leases of partitions %v", got), int64(len(got)))
	}
	return got, err
}

// register decodes pulled or claimed stream messages from shard into
// deliveries, one env per task, and records each entry in worker w's frame
// registry so its acknowledgement can wait for its last task. A re-delivered
// entry resets its bookkeeping: redelivery means full re-execution.
func (t *RedisTransport) register(w, shard int, msgs []redisclient.StreamMessages, reclaimed bool) ([]Env, error) {
	total := 0
	for _, m := range msgs {
		for _, e := range m.Entries {
			total += codec.FrameCount(e.Field(taskField))
		}
	}
	if total == 0 {
		return nil, nil
	}
	reg := t.frames[w]
	envs := make([]Env, total)
	next := 0
	for _, m := range msgs {
		for _, e := range m.Entries {
			frame := envs[next:]
			n, err := codec.DecodeEach(e.Field(taskField), func(i int) *Task { return &frame[i].Task })
			if err != nil {
				return nil, err
			}
			for i := range frame[:n] {
				env := &frame[i]
				env.AckID, env.Shard = e.ID, shard
				if reclaimed && t.diag != nil {
					// Cold path (failure recovery): per-PE replay attribution may
					// take the ledger lock per task.
					t.diag.PE(env.PE).Replays.Inc()
				}
			}
			reg[frameKey{shard: shard, stream: m.Key, id: e.ID}] = &entryState{remaining: n, tasks: n}
			next += n
		}
	}
	return envs[:next], nil
}

// complete releases envs — deliveries of stream — in worker w's frame
// registry and returns the entries whose every task is now released: those
// an acknowledgement removes, each with its shard and the pending-counter
// weight it carries. Envs from one entry arrive contiguously (PullBatch fans
// frames out in order and the worker loop preserves it), so a linear
// run-group scan replaces a map. An entry missing from the registry — a
// duplicate delivery, or a repeated ack of an entry already completed — is
// weighted by what this call saw; the server's PEL decides whether anything
// lands.
func (t *RedisTransport) complete(w int, stream string, envs []Env) []doneEntry {
	reg := t.frames[w]
	var completed []doneEntry
	for i := 0; i < len(envs); {
		id, shard := envs[i].AckID, envs[i].Shard
		acked := 0
		for ; i < len(envs) && envs[i].AckID == id && envs[i].Shard == shard; i++ {
			acked++
		}
		fk := frameKey{shard: shard, stream: stream, id: id}
		es, ok := reg[fk]
		if !ok {
			completed = append(completed, doneEntry{shard: shard, id: id, tasks: acked})
			continue
		}
		es.remaining -= acked
		if es.remaining <= 0 {
			completed = append(completed, doneEntry{shard: shard, id: id, tasks: es.tasks})
			delete(reg, fk)
		}
	}
	return completed
}
