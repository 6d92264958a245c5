package state

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// OpKind names one of the two mutation shapes.
type OpKind uint8

const (
	// OpPut sets Key to Value.
	OpPut OpKind = iota
	// OpAddInt adds Delta to the integer at Key (absent counts as 0).
	OpAddInt
	numOpKinds
)

// Op is one state mutation as a value: what a FenceScope stamps, counts and
// times and a backend store applies, both through Apply. Only the fields its
// Kind names are read.
type Op struct {
	Kind  OpKind
	Key   string
	Value string // OpPut
	Delta int64  // OpAddInt
	// Ledger, when non-empty, fences the op: the store records this field of
	// the namespace's applied ledger and applies the mutation in one
	// indivisible step, or — when the field was already recorded — applies
	// nothing. FenceScope stamps it; PEs never set it.
	Ledger string
}

// Result is what applying an Op did.
type Result struct {
	// Applied is false only for a fenced op whose ledger field was already
	// recorded: a duplicate execution, dropped.
	Applied bool
	// N is the key's integer value after an OpAddInt — the current value when
	// the increment was dropped as a duplicate.
	N int64
}

// mutations supplies Store's two mutation methods as sugar over Apply. Every
// store type embeds it bound to itself, so the methods PEs call are written
// once and each type implements exactly one mutation path.
type mutations struct {
	to interface{ Apply(Op) (Result, error) }
}

// Put implements Store.
func (m mutations) Put(key, value string) error {
	_, err := m.to.Apply(Op{Kind: OpPut, Key: key, Value: value})
	return err
}

// AddInt implements Store.
func (m mutations) AddInt(key string, delta int64) (int64, error) {
	res, err := m.to.Apply(Op{Kind: OpAddInt, Key: key, Delta: delta})
	return res.N, err
}

// Counter slots past the two mutation kinds, which index opCounts directly.
const (
	countGet = int(numOpKinds) + iota
	countSnapshot
	countRestore
	numCounts
)

// opCounts is the concurrency-safe accumulator behind FencedStore.Ops: one
// slot per mutation kind and one per read shape, bumped by the scope an op
// passes through, so every op counts exactly once.
type opCounts [numCounts]atomic.Int64

// ops reads the current totals.
func (c *opCounts) ops() metrics.StateOps {
	return metrics.StateOps{
		Gets: c[countGet].Load(), Puts: c[OpPut].Load(), Adds: c[OpAddInt].Load(),
		Snapshots: c[countSnapshot].Load(), Restores: c[countRestore].Load(),
	}
}
