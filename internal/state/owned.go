package state

import (
	"fmt"
	"slices"
	"strconv"
)

// Table is one worker's owned view of a keyed namespace: the keys of the
// partitions it leases, served from memory. While a task of partition p runs
// with its scope owning the table (FenceScope.Own), every op on a key of p
// reads and writes the table — a key not yet in it is fetched from the
// backend once, unless p is complete — and the table keeps what the
// partition's next commit must write: each dirty key's final value and,
// under fencing, each raised high-water mark (see Admit). The runtime
// commits that delta with the window's acks in one transaction (see Delta
// and Committed); a partition whose lease is released or lost is dropped,
// and its next holder starts from the backend.
//
// The holder of a partition's lease is the only writer of its keys and
// marks, which is what makes the table safe: no other worker's op can slip
// between the table's read and its commit. It also lets a partition be
// complete (see Complete): when its holder is the first writer of a fresh
// namespace, whatever the table lacks is absent from the backend, so
// nothing is fetched. A Table is not safe for concurrent use.
type Table struct {
	partOf func(key string) int
	parts  []tablePart
}

// tablePart is one partition's keys, marks and uncommitted delta.
// keysComplete and marksComplete say that a key or mark the table lacks is
// absent from the backend (Complete).
type tablePart struct {
	cells         map[string]cell
	dirty         []string        // keys changed since the last commit, each once
	marks         map[uint64]mark // provenance → its mark, once loaded or raised
	raised        []uint64        // provenances whose mark rose since the last commit, each once
	writes        []Write         // Delta's storage, reused
	keysComplete  bool
	marksComplete bool
}

// cell is one key's current value; dirty marks it for the next commit.
type cell struct {
	val    string
	exists bool
	dirty  bool
}

// mark is one provenance's high-water mark in a partition: the highest Seq
// that ran, none while set is false; dirty marks it for the next commit.
type mark struct {
	field      string // its ledger field (MarkField)
	seq        uint64
	set, dirty bool
}

// markCache bounds a partition's marks kept across commits: past it, a
// commit forgets them all, and a provenance seen again is loaded again — so
// a complete partition's marks stop being complete there, while its keys
// stay complete. It is a memory bound for an owned PE fed by a per-event
// upstream PE, whose every task is a provenance of its own; no measured
// workload reaches it, so neither its value nor the forget-all policy is
// tuned.
const markCache = 1024

// Write is one dirty key's final value; Keep false deletes the key.
type Write struct {
	Key, Value string
	Keep       bool
}

// NewTable makes an empty table over parts partitions; partOf names the
// partition a key belongs to.
func NewTable(parts int, partOf func(key string) int) *Table {
	return &Table{partOf: partOf, parts: make([]tablePart, parts)}
}

// Complete declares that partition p's backend holds nothing the table
// lacks: every key and mark not in the table is absent. It holds for the
// first holder of a partition in a fresh namespace, as the only writer
// there ever was. It lasts until Drop; a commit that forgets the marks
// (markCache) ends it for the marks alone.
func (t *Table) Complete(p int) {
	tp := &t.parts[p]
	tp.keysComplete, tp.marksComplete = true, true
}

// Marked reports whether partition p's mark for provenance src is known: in
// the table, or absent because the partition's marks are complete. A window
// loads each one that is not before it runs (FillMark).
func (t *Table) Marked(p int, src uint64) bool {
	tp := &t.parts[p]
	_, ok := tp.marks[src]
	return ok || tp.marksComplete
}

// FillMark stores partition p's mark for src as the backend holds it:
// value is its field's content, which is absent when exists is false.
func (t *Table) FillMark(p int, src uint64, value string, exists bool) error {
	m := mark{field: MarkField(p, src)}
	if exists {
		seq, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("state: mark %q of partition %d is not a sequence number", value, p)
		}
		m.seq, m.set = seq, true
	}
	t.setMark(p, src, m)
	return nil
}

// Admit decides whether the fenced delivery tok of partition p runs afresh,
// by the partition's mark for tok.Src, which must be known (Marked).
// A Seq at or below the mark has run before: Admit reports false, and the
// delivery is a replay. Any other Seq raises the mark to itself for the next
// commit. First deliveries of one provenance into one partition arrive in
// increasing Seq (the runtime's own.go says why), so the mark is all the
// ledger a partition needs.
func (t *Table) Admit(p int, tok Token) bool {
	tp := &t.parts[p]
	m := tp.marks[tok.Src]
	if m.set && tok.Seq <= m.seq {
		return false
	}
	if !m.dirty {
		tp.raised = append(tp.raised, tok.Src)
	}
	if m.field == "" {
		m.field = MarkField(p, tok.Src)
	}
	m.seq, m.set, m.dirty = tok.Seq, true, true
	t.setMark(p, tok.Src, m)
	return true
}

func (t *Table) setMark(p int, src uint64, m mark) {
	tp := &t.parts[p]
	if tp.marks == nil {
		tp.marks = map[uint64]mark{}
	}
	tp.marks[src] = m
}

// Delta is partition p's uncommitted delta: each dirty key's final value and
// each raised mark. It stays valid until the partition's next Delta,
// Committed or Drop.
func (t *Table) Delta(p int) []Write {
	tp := &t.parts[p]
	tp.writes = tp.writes[:0]
	for _, k := range tp.dirty {
		c := tp.cells[k]
		tp.writes = append(tp.writes, Write{Key: k, Value: c.val, Keep: c.exists})
	}
	for _, src := range tp.raised {
		m := tp.marks[src]
		tp.writes = append(tp.writes, Write{Key: m.field, Value: strconv.FormatUint(m.seq, 10), Keep: true})
	}
	return tp.writes
}

// Committed marks partition p's delta as landed.
func (t *Table) Committed(p int) {
	tp := &t.parts[p]
	for _, k := range tp.dirty {
		c := tp.cells[k]
		c.dirty = false
		tp.cells[k] = c
	}
	if len(tp.marks) > markCache {
		clear(tp.marks)
		tp.marksComplete = false
	} else {
		for _, src := range tp.raised {
			m := tp.marks[src]
			m.dirty = false
			tp.marks[src] = m
		}
	}
	tp.dirty, tp.raised = tp.dirty[:0], tp.raised[:0]
}

// Drop forgets partition p, delta included: its lease is gone.
func (t *Table) Drop(p int) { t.parts[p] = tablePart{} }

// Missing filters keys in place down to those the table does not hold yet,
// each once, leaving out those of complete partitions: what a window must
// fetch before it runs.
func (t *Table) Missing(keys []string) []string {
	out := keys[:0]
	for _, k := range keys {
		tp := &t.parts[t.partOf(k)]
		if _, ok := tp.cells[k]; !ok && !tp.keysComplete && !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// Fill stores a key's backend value, clean.
func (t *Table) Fill(key, value string, exists bool) { t.fill(key, value, exists) }

func (t *Table) fill(key, value string, exists bool) cell {
	tp := &t.parts[t.partOf(key)]
	if tp.cells == nil {
		tp.cells = map[string]cell{}
	}
	c := cell{val: value, exists: exists}
	tp.cells[key] = c
	return c
}

// set gives key, whose cell was c, a new value marked for the commit.
func (t *Table) set(p int, key string, c cell, value string, exists bool) {
	tp := &t.parts[p]
	if !c.dirty {
		tp.dirty = append(tp.dirty, key)
	}
	tp.cells[key] = cell{val: value, exists: exists, dirty: true}
}

// Own serves the scope's ops from t, as partition part's holder, until
// Disown. The runtime sets it around each task of an owned partition. A
// replay is a duplicate execution of a task whose effects have landed: its
// reads see the table, and each of its mutations is dropped as by the fence —
// Fn not invoked, an AddInt answering the key's current value — and counted
// as a fence drop.
func (s *FenceScope) Own(t *Table, part int, replay bool) {
	s.own, s.part, s.replay, s.ownErr = t, part, replay, nil
}

// Disown ends Own and returns the first op of the task that reached outside
// its partition, if any: the task fails even when the PE swallowed the op's
// error.
func (s *FenceScope) Disown() error {
	err := s.ownErr
	s.own, s.ownErr = nil, nil
	return err
}

// ownCell resolves key's cell in the owned table, fetching it from the
// backend on first use unless the partition is complete, where a key the
// table lacks is absent. A key outside the task's partition is an error: its
// holder may be another worker.
func (s *FenceScope) ownCell(key string) (cell, error) {
	t := s.own
	if p := t.partOf(key); p != s.part {
		if s.ownErr == nil {
			s.ownErr = fmt.Errorf("state: key %q of %s belongs to partition %d, not to the task's partition %d: owned keyed state reaches only the group key's partition",
				key, s.fs.inner.Namespace(), p, s.part)
		}
		return cell{}, s.ownErr
	}
	tp := &t.parts[s.part]
	if c, ok := tp.cells[key]; ok {
		return c, nil
	}
	if tp.keysComplete {
		return t.fill(key, "", false), nil
	}
	v, ok, err := s.fs.inner.Get(key)
	if err != nil {
		return cell{}, err
	}
	return t.fill(key, v, ok), nil
}

// ownApply is Apply on the owned table. Nothing is ledger-stamped: the
// partition's mark for the task's provenance fences the whole task instead.
func (s *FenceScope) ownApply(op Op) (Result, error) {
	c, err := s.ownCell(op.Key)
	if err != nil {
		return Result{}, err
	}
	if s.replay {
		res := Result{}
		if op.Kind == OpAddInt && c.exists {
			if res.N, err = strconv.ParseInt(c.val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("state: value of %q is not an integer", op.Key)
			}
		}
		s.fs.dropped()
		return res, nil
	}
	res := Result{Applied: true}
	switch op.Kind {
	case OpPut:
		s.own.set(s.part, op.Key, c, op.Value, true)
	case OpDelete:
		s.own.set(s.part, op.Key, c, "", false)
	case OpAddInt:
		var cur int64
		if c.exists {
			if cur, err = strconv.ParseInt(c.val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("state: value of %q is not an integer", op.Key)
			}
		}
		res.N = cur + op.Delta
		s.own.set(s.part, op.Key, c, strconv.FormatInt(res.N, 10), true)
	case OpUpdate:
		next, keep, err := op.Fn(c.val, c.exists)
		if err != nil {
			return Result{}, err
		}
		if !keep {
			next = ""
		}
		s.own.set(s.part, op.Key, c, next, keep)
	}
	return res, nil
}
