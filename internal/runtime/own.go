package runtime

import (
	"slices"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/state"
)

// Owned keys on the pool: a keyed-state PE whose in-edges all group by key,
// on a pool plan whose transport's servers hold its namespace (dyn_redis,
// dyn_auto_redis), gets leased partitions instead of the shared pool. The
// router sends each of its tasks to partition hash(group key) mod P; each
// partition is read by the one pool worker holding its lease, which serves
// the PE's state ops from a table of its own (state.Table) and commits each
// window — the dirty keys' final values, the raised marks, the window's
// acks — in one transaction at refill, where the ack flush sits. A window
// costs at most one state round trip of its own, a load of its cold keys and
// marks before it runs, instead of one per op, and none when its partitions
// are complete; its commit rides the worker's next pull.
//
// A window of a complete partition loads nothing: its holder is the
// partition's first in a run that does not resume (Partitions.Acquire's
// fresh), so what its table lacks is absent from the backend
// (state.Table.Complete). That holds because a fresh run drops the
// namespace at setup, before any worker starts, a lease holder is its
// partition's only writer, and the PE's managed Final, the one other
// writer, runs after the drain, when no task of the PE is left to run on a
// partition (the graph is acyclic, so no later Final feeds it). Completeness
// ends with the holder's table — a release, a loss, a takeover — so a
// partition that has had a holder, and every partition of a resumed run,
// loads as above; and the marks of a partition that passes markCache are
// loaded again once forgotten.
//
// Under fencing a partition keeps one high-water mark per provenance
// (Task.Src): the highest Seq of that provenance that has run in it. A
// delivery whose Seq is at or below its mark is a duplicate: it runs as a
// replay with every mutation dropped, as the fence drops them, so that its
// children still reach downstream. A holder loads a mark the first time it
// meets the (partition, provenance), raises it as tasks run, and writes each
// raised mark once per commit. This is sound because first deliveries of one
// provenance into one partition arrive in increasing Seq:
//
//   - one execution emits its children on an edge in increasing Seq, and the
//     batcher and its pusher push them in emission order (emit.go);
//   - a partition has one holder at a time, and only it is delivered the
//     partition's new entries. Under stale recovery, where a lease can
//     expire and be taken over without its holder knowing, the server
//     checks the lease on every read of a partition stream (readSet), so a
//     worker whose lease was taken while it was on its way to the server
//     reads nothing of the partition; otherwise only a holder gives its
//     lease up, and it stops reading the partition when it does. A new
//     holder adopts the partition's pending entries when it acquires the
//     lease, before its first read, so it meets its entries in ID order, the
//     adopted ones first, and it commits each window's marks with its acks,
//     so what is acked is what the marks cover. An entry its idle sweep
//     takes back from another worker reached this holder before, by
//     adoption or read, and ran in a window the holder has committed (a
//     sweep follows an empty pull): it is a replay;
//   - when a parent runs twice, each Seq first appears at the earlier of its
//     two positions, and the pointwise minimum of two increasing sequences
//     increases.
//
// The last step assumes a replay re-emits the same children, in the same
// order, as every fenced PE must for its children to meet their fences at
// all. Marks are per partition, so they hold only under one partition count:
// a fresh run records its count in the namespace (state.PartsField), and a
// resumed run adopts the recorded count (see Partition).
//
// Leases move by one protocol, whatever moves them:
//
//   - a worker holds at most ceil(P / eligible holders) partitions, and takes
//     free ones up to that quota at every refill, its own stripe first, so a
//     partition with pending tasks has a holder within one refill;
//   - it commits and then releases every lease before it parks at the
//     auto-scaler's gate, before it runs a source's Generate (one long task
//     would starve its partitions for the whole run) and when it exits;
//   - under stale recovery a lease expires after the reclaim threshold
//     unless its holder's commits and renewals refresh it, and an
//     empty-handed worker takes over expired leases;
//   - a holder whose lease was taken finds out at its next read, commit or
//     renewal, which then reads or applies nothing;
//   - a holding ends in one place, whatever ends it — a release or a lease
//     found lost (Partitions.forget) — and the worker drops the tables of
//     its ended holdings at one point, before it next acquires, so a new
//     holder adopts the partition's pending entries and starts from an
//     empty table.
//
// Every PE keeps its copy on every pool worker, and its out-edges fuse as
// before. Final, Snapshot and Restore, and every other PE's ops, still go to
// the backend.

// partsPerWorker sets an owned PE's partition count: this many per pool
// worker at the pool's full size, so the hottest partition of a skewed key
// distribution stays below one worker's share.
const partsPerWorker = 4

// ownedPE is one owned PE of a run: its partitions, which own every
// holding of them, and what its deliveries need to run.
type ownedPE struct {
	ps     *Partitions
	fs     *state.FencedStore
	fenced bool
	keys   map[string][]graph.KeyFunc // in-port → the key functions of the edges into it
}

// own finds the run's owned PEs and lays out their partitions, before any
// worker starts: a keyed-state PE on the pool, not a source, whose in-edges
// all group by a key, and whose namespace lives on the transport's servers.
func (r *run) own() error {
	plan := r.cfg.Plan
	for _, n := range r.g.Nodes() {
		in := r.g.InEdges(n.Name)
		ownable := plan.Pool > 0 && n.State == graph.StateKeyed && plan.Instances[n.Name] == 0 && !n.IsSource() && len(in) > 0
		for _, e := range in {
			ownable = ownable && e.Grouping.Kind == graph.GroupBy && e.Grouping.Key != nil
		}
		if !ownable {
			continue
		}
		fs := r.ms.Store(n.Name)
		key, addr := fs.Home()
		if key == "" {
			continue
		}
		ps, err := r.cfg.Transport.Partition(PartitionSpec{PE: n.Name, Parts: partsPerWorker * plan.Pool, HomeKey: key, Home: addr, Resume: r.opts.StateResume})
		if err != nil {
			return err
		}
		if ps == nil {
			continue
		}
		o := &ownedPE{ps: ps, fs: fs, fenced: r.ms.Fenced(n.Name) != nil, keys: map[string][]graph.KeyFunc{}}
		for _, e := range in {
			o.keys[e.ToPort] = append(o.keys[e.ToPort], e.Grouping.Key)
		}
		r.owned = append(r.owned, o)
		if r.cfg.Plan.Parts == nil {
			r.cfg.Plan.Parts = map[string]int{}
		}
		r.cfg.Plan.Parts[n.Name] = ps.Parts()
	}
	r.holders.Store(int64(plan.Pool))
	return nil
}

// ownSlot is one pool worker's side of an owned PE: its table and what the
// next commit of each partition acknowledges.
type ownSlot struct {
	o     *ownedPE
	table *state.Table
	pend  [][]Env // partition → deliveries its next commit acknowledges

	// Scratch reused window after window: per partition, the window's
	// deliveries (indices in the worker's buffer), the fields load reads and
	// the provenances whose marks are among them; the partitions load reads
	// and their key counts; the blocks of a commit.
	byPart [][]int
	fields [][]string
	srcs   [][]uint64
	reads  []int
	nkeys  []int
	blocks []PartCommit
}

// initOwn gives a pool worker a slot per owned PE. The worker starts as an
// eligible holder.
func (wk *worker) initOwn() {
	if wk.spec.Pinned() {
		return
	}
	for _, o := range wk.r.owned {
		n := o.ps.Parts()
		wk.own = append(wk.own, &ownSlot{o: o, pend: make([][]Env, n),
			byPart: make([][]int, n), fields: make([][]string, n), srcs: make([][]uint64, n),
			table: state.NewTable(n, func(key string) int { return int(graph.Hash32(key) % uint32(n)) })})
	}
	wk.eligible = len(wk.own) > 0
}

// setEligible counts the worker in or out of the run's eligible holders.
func (wk *worker) setEligible(v bool) {
	if len(wk.own) == 0 || v == wk.eligible {
		return
	}
	wk.eligible = v
	if v {
		wk.r.holders.Add(1)
	} else {
		wk.r.holders.Add(-1)
	}
}

// slotFor is the slot of a delivery from a leased partition, nil for any
// other delivery.
func (wk *worker) slotFor(env Env) *ownSlot {
	if env.Instance < 0 {
		return nil
	}
	for _, s := range wk.own {
		if s.o.ps.pe == env.PE {
			return s
		}
	}
	return nil
}

// admit decides how a partition delivery runs. A delivery of a partition the
// worker does not hold does not run: it stays unacked, for the partition's
// holder, which adopts it when it acquires the lease or, if it held the entry
// already, takes it back with its idle sweep (a fence drop). A fenced task at or below its
// partition's mark for its provenance — recorded, or raised earlier in this
// window — is a duplicate: it runs as a replay, every mutation dropped, so
// that its children, stamped with the original's identities, reach
// downstream again and meet their own fences there, and it is acked with the
// window.
func (s *ownSlot) admit(w int, env Env) (run, replay bool) {
	if !s.o.ps.Holds(w, env.Instance) {
		s.o.fs.ObserveDrop()
		return false, false
	}
	if !s.o.fenced {
		return true, false
	}
	return true, !s.table.Admit(env.Instance, state.Token{Src: env.Src, Seq: env.Seq})
}

// done books a partition delivery that ran for the partition's next commit.
func (s *ownSlot) done(env Env) {
	s.pend[env.Instance] = append(s.pend[env.Instance], env)
}

// settle commits every owned partition's window — with release, also giving
// every lease up. The emit batch must be flushed first, as before an ack.
func (wk *worker) settle(release bool) error {
	for _, s := range wk.own {
		if err := wk.settleSlot(s, release); err != nil {
			return err
		}
	}
	return nil
}

// settleSlot commits one owned PE's partitions: a release commits at once,
// and any other commit is staged for the worker's next pull to carry
// (Partitions.Stage). Deliveries of a partition lost since they ran are not
// acked — its new holder adopted them.
func (wk *worker) settleSlot(s *ownSlot, release bool) error {
	w, ps := wk.w, s.o.ps
	blocks := s.blocks[:0]
	work := false
	for _, p := range ps.Held(w) {
		writes := s.table.Delta(p)
		if n := len(writes) + len(s.pend[p]); n > 0 || release {
			work = work || n > 0
			blocks = append(blocks, PartCommit{Part: p, Writes: writes, Envs: s.pend[p], Release: release})
		}
	}
	var err error
	if work {
		err = faultinject.Fire(faultinject.ProbeMidCommit)
	}
	switch {
	case err != nil:
	case release:
		err = ps.Commit(w, blocks)
	default:
		ps.Stage(w, blocks)
	}
	for p := range s.pend {
		s.pend[p] = s.pend[p][:0]
	}
	s.blocks = blocks
	if err != nil {
		return err
	}
	for _, b := range blocks {
		if ps.Holds(w, b.Part) { // not released, nor lost
			s.table.Committed(b.Part)
		}
	}
	return nil
}

// standDown commits and releases every lease and leaves the eligible
// holders: before a park, a source's Generate, or the exit.
func (wk *worker) standDown() error {
	if len(wk.own) == 0 {
		return nil
	}
	wk.setEligible(false)
	if err := wk.b.flush(); err != nil {
		return err
	}
	return wk.settle(true)
}

// lease keeps the worker's share of each owned PE's partitions at its quota,
// ceil(P / eligible holders), right after a settle: it gives a surplus up
// and takes free partitions up to the quota. A worker takes none before its
// first pull: nothing is pending on a partition yet, and the worker that
// pulls a source's generate task would only give them back.
func (wk *worker) lease() error {
	if !wk.pulled {
		wk.pulled = true
		return nil
	}
	holders := int(max(wk.r.holders.Load(), 1))
	for _, s := range wk.own {
		ps, w := s.o.ps, wk.w
		quota := (ps.Parts() + holders - 1) / holders
		if held := ps.Held(w); len(held) > quota {
			blocks := make([]PartCommit, len(held)-quota)
			for i, p := range held[quota:] {
				blocks[i] = PartCommit{Part: p, Release: true}
			}
			if err := ps.Commit(w, blocks); err != nil {
				return err
			}
		}
		if err := wk.acquire(s, ps.claim(w, quota-ps.nheld[w], wk.r.cfg.Plan.Pool), false); err != nil {
			return err
		}
	}
	return nil
}

// takeover, after an empty pull, renews the worker's leases when due and
// takes the expired leases of partitions other workers held (stale recovery
// only: without it a lease never expires).
func (wk *worker) takeover() error {
	for _, s := range wk.own {
		if ps := s.o.ps; ps.ttl > 0 {
			if err := ps.Renew(wk.w); err != nil {
				return err
			}
			if err := wk.acquire(s, ps.others(wk.w), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// acquire takes the leases of partitions cand for the worker — claimed ones,
// or with over, expired ones other workers held. It first drops the tables
// of the holdings that ended since it last ran, the one place a table is
// dropped, so a partition taken again starts from an empty table and one no
// worker ever held starts complete.
func (wk *worker) acquire(s *ownSlot, cand []int, over bool) error {
	ps := s.o.ps
	for _, p := range ps.drainEnded(wk.w) {
		s.table.Drop(p)
	}
	if over {
		_, err := ps.Takeover(wk.w, cand)
		return err
	}
	_, fresh, err := ps.Acquire(wk.w, cand)
	for _, p := range fresh {
		s.table.Complete(p)
	}
	return err
}

// load readies a pulled window's partition deliveries: for each owned PE,
// one round trip reads, per held partition, the group keys the table lacks
// and, under fencing, the marks of the provenances it has not met yet. A
// window that lacks neither, as every window of a complete partition,
// makes no round trip.
func (wk *worker) load() error {
	for _, s := range wk.own {
		if err := wk.loadSlot(s); err != nil {
			return err
		}
	}
	return nil
}

// loadSlot is load for one owned PE.
func (wk *worker) loadSlot(s *ownSlot) error {
	for p := range s.byPart {
		s.byPart[p] = s.byPart[p][:0]
	}
	for i, env := range wk.buf {
		if env.PE == s.o.ps.pe && env.Instance >= 0 && s.o.ps.Holds(wk.w, env.Instance) {
			s.byPart[env.Instance] = append(s.byPart[env.Instance], i)
		}
	}
	parts, nkeys, fields := s.reads[:0], s.nkeys[:0], make([][]string, 0, len(s.reads))
	for p, idx := range s.byPart {
		if len(idx) == 0 {
			continue
		}
		f := s.fields[p][:0]
		for _, i := range idx {
			for _, kf := range s.o.keys[wk.buf[i].Port] {
				if k, ok := groupKey(kf, wk.buf[i].Value); ok {
					f = append(f, k)
				}
			}
		}
		f = s.table.Missing(f)
		n := len(f)
		srcs := s.srcs[p][:0]
		if s.o.fenced {
			for _, i := range idx {
				if src := wk.buf[i].Src; !s.table.Marked(p, src) && !slices.Contains(srcs, src) {
					srcs = append(srcs, src)
					f = append(f, state.MarkField(p, src))
				}
			}
		}
		s.fields[p], s.srcs[p] = f, srcs
		if len(f) > 0 {
			parts, fields, nkeys = append(parts, p), append(fields, f), append(nkeys, n)
		}
	}
	s.reads, s.nkeys = parts, nkeys
	if len(parts) == 0 {
		return nil
	}
	vals, found, err := s.o.ps.Read(wk.w, parts, fields)
	if err != nil {
		return err
	}
	for j, p := range parts {
		if !s.o.ps.Holds(wk.w, p) { // the read found the lease lost
			continue
		}
		n := nkeys[j]
		for k := 0; k < n; k++ {
			s.table.Fill(fields[j][k], vals[j][k], found[j][k])
		}
		for m, src := range s.srcs[p] {
			if err := s.table.FillMark(p, src, vals[j][n+m], found[j][n+m]); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupKey is kf's key of v; a value another in-edge's key function cannot
// read yields none.
func groupKey(kf graph.KeyFunc, v any) (key string, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return kf(v), true
}
