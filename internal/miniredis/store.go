// Package miniredis is this system's data plane: an in-memory server speaking
// RESP2 over TCP whose command table is exactly the traffic the workflow
// engine, the benchmark and a debugging session send it. It is not a Redis
// clone. The paper's dyn_redis / dyn_auto_redis / hybrid_redis mappings need
// streams with consumer groups and a keyed-state store, nothing more, and the
// reproduction must be self-contained (stdlib only) — so a command stays in
// the table only while something issues it, and TestCommandSurface pins the
// table and redisclient.Retryable to the list below.
//
// Issued by the engine (transport, state backend, fence), in these
// forms only — any other option arm is a syntax error:
//
//	PING FLUSHALL                                 connectivity, reset
//	GET SET [NX] [PX ms] INCRBY DEL               pending counter, partition leases, checkpoints
//	HSET HGET HGETALL HINCRBY                     namespace state hashes
//	XADD XLEN XGROUP CREATE                       task streams and their groups
//	XREADGROUP ... STREAMS key... >...            new entries of one or more streams
//	XPENDING key group start end count [consumer] a consumer's pending IDs
//	XCLAIM ... JUSTID, XAUTOCLAIM ... [COUNT n]   lease heartbeat, recovery
//	FENCEAPPLY FENCEXACK SINKAPPEND               fenced transactions (cmd_compound.go),
//	SINKAPPEND LEASE                              an owned partition's lease-checked read and commit
//
// Issued by benchmark/: DBSIZE KEYS (leak checks after a run), HLEN (the
// fence-ledger size probe), XACK (the plain-ack probe the transport's
// FENCEXACK is measured against).
//
// Inspection a debugging session needs: EXISTS TYPE TTL INFO XRANGE.
//
// The seat bounded streams build on (ROADMAP item 6): XTRIM and XADD MAXLEN.
//
// QUIT is answered outside the table. Where a command exists its replies and
// errors follow the Redis documentation, so the client needs no dialect; any
// other command gets "ERR unknown command".
package miniredis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// keyKind enumerates the value types a key can hold.
type keyKind uint8

const (
	kindString keyKind = iota
	kindHash
	kindStream
)

func (k keyKind) String() string {
	switch k {
	case kindString:
		return "string"
	case kindHash:
		return "hash"
	case kindStream:
		return "stream"
	default:
		return "unknown"
	}
}

// entry is one keyspace slot.
type entry struct {
	kind     keyKind
	str      string
	hash     map[string]string
	stream   *stream
	expireAt time.Time // zero means no TTL
}

func (e *entry) expired(now time.Time) bool {
	return !e.expireAt.IsZero() && now.After(e.expireAt)
}

// db is a single keyspace. The server owns exactly one.
type db struct {
	keys map[string]*entry
}

func newDB() *db { return &db{keys: make(map[string]*entry)} }

// lookup returns the live entry for key, applying lazy expiry.
func (d *db) lookup(key string, now time.Time) *entry {
	e, ok := d.keys[key]
	if !ok {
		return nil
	}
	if e.expired(now) {
		delete(d.keys, key)
		return nil
	}
	return e
}

// lookupKind fetches key and enforces its type, returning wrongType error
// text when it holds another kind.
func (d *db) lookupKind(key string, kind keyKind, now time.Time) (*entry, error) {
	e := d.lookup(key, now)
	if e == nil {
		return nil, nil
	}
	if e.kind != kind {
		return nil, errWrongType
	}
	return e, nil
}

var errWrongType = fmt.Errorf("WRONGTYPE Operation against a key holding the wrong kind of value")

// StreamID is a Redis stream entry ID (milliseconds-sequence pair).
type StreamID struct {
	Ms  uint64
	Seq uint64
}

// String renders the canonical "ms-seq" form.
func (id StreamID) String() string {
	return strconv.FormatUint(id.Ms, 10) + "-" + strconv.FormatUint(id.Seq, 10)
}

// Less reports strict ordering of stream IDs.
func (id StreamID) Less(o StreamID) bool {
	if id.Ms != o.Ms {
		return id.Ms < o.Ms
	}
	return id.Seq < o.Seq
}

// IsZero reports the zero ID ("0-0").
func (id StreamID) IsZero() bool { return id.Ms == 0 && id.Seq == 0 }

// Next returns the smallest ID strictly greater than id.
func (id StreamID) Next() StreamID {
	if id.Seq == ^uint64(0) {
		return StreamID{Ms: id.Ms + 1, Seq: 0}
	}
	return StreamID{Ms: id.Ms, Seq: id.Seq + 1}
}

// maxStreamID is the largest representable ID ("+" in range queries).
var maxStreamID = StreamID{Ms: ^uint64(0), Seq: ^uint64(0)}

// errInvalidStreamID is Redis's reply to an ID argument it cannot parse.
var errInvalidStreamID = fmt.Errorf("ERR Invalid stream ID specified as stream command argument")

// parseStreamID parses the "ms" and "ms-seq" forms; seqDefault is what an
// absent sequence part defaults to (0 for range starts, max for range ends).
// The range sentinels "-" and "+" are not IDs: parseRangeBounds resolves
// them, every other argument position rejects them.
func parseStreamID(s string, seqDefault uint64) (StreamID, error) {
	ms := s
	seq := seqDefault
	if i := strings.IndexByte(s, '-'); i >= 0 {
		ms = s[:i]
		var err error
		seq, err = strconv.ParseUint(s[i+1:], 10, 64)
		if err != nil {
			return StreamID{}, errInvalidStreamID
		}
	}
	msv, err := strconv.ParseUint(ms, 10, 64)
	if err != nil {
		return StreamID{}, errInvalidStreamID
	}
	return StreamID{Ms: msv, Seq: seq}, nil
}

// streamEntry is one entry in a stream: its ID plus flat field-value pairs.
type streamEntry struct {
	id     StreamID
	fields []string // alternating field, value
}

// pendingEntry is one row of a consumer group's pending entries list (PEL).
type pendingEntry struct {
	consumer      string
	deliveryTime  time.Time
	deliveryCount int64
}

// consumer is one named consumer inside a group.
type consumer struct {
	name    string
	pending map[StreamID]struct{}
}

// group is a stream consumer group.
type group struct {
	lastDelivered StreamID
	pending       map[StreamID]*pendingEntry
	consumers     map[string]*consumer
}

func newGroup(last StreamID) *group {
	return &group{
		lastDelivered: last,
		pending:       make(map[StreamID]*pendingEntry),
		consumers:     make(map[string]*consumer),
	}
}

func (g *group) consumerNamed(name string) *consumer {
	c, ok := g.consumers[name]
	if !ok {
		c = &consumer{name: name, pending: make(map[StreamID]struct{})}
		g.consumers[name] = c
	}
	return c
}

// sortedPending returns the PEL IDs in ascending order, optionally filtered
// to one consumer.
func (g *group) sortedPending(onlyConsumer string) []StreamID {
	ids := make([]StreamID, 0, len(g.pending))
	for id, pe := range g.pending {
		if onlyConsumer != "" && pe.consumer != onlyConsumer {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// stream is the stream datatype: an append-only log plus consumer groups.
type stream struct {
	entries []streamEntry // ascending by id
	lastID  StreamID
	groups  map[string]*group
}

func newStream() *stream {
	return &stream{groups: make(map[string]*group)}
}

// add appends an entry. id must be strictly greater than lastID.
func (s *stream) add(id StreamID, fields []string) {
	s.entries = append(s.entries, streamEntry{id: id, fields: fields})
	s.lastID = id
}

// errStreamExhausted is the reply once a stream's top item holds the largest
// representable ID: nothing can be appended above it.
var errStreamExhausted = fmt.Errorf("ERR The stream has exhausted the last possible ID, unable to add more items")

// nextAutoID computes the ID "*" would allocate at wall time now: a fresh
// millisecond starts at sequence 0, otherwise the successor of the top item.
func (s *stream) nextAutoID(now time.Time) (StreamID, error) {
	if ms := uint64(now.UnixMilli()); ms > s.lastID.Ms {
		return StreamID{Ms: ms, Seq: 0}, nil
	}
	if s.lastID == maxStreamID {
		return StreamID{}, errStreamExhausted
	}
	return s.lastID.Next(), nil
}

// searchIdx returns the index of the first entry with id >= want.
func (s *stream) searchIdx(want StreamID) int {
	return sort.Search(len(s.entries), func(i int) bool {
		return !s.entries[i].id.Less(want)
	})
}

// entryAt returns the entry with exactly id, or nil.
func (s *stream) entryAt(id StreamID) *streamEntry {
	i := s.searchIdx(id)
	if i < len(s.entries) && s.entries[i].id == id {
		return &s.entries[i]
	}
	return nil
}

// rangeEntries returns entries in [from, to] inclusive, up to count
// (count <= 0 means unlimited).
func (s *stream) rangeEntries(from, to StreamID, count int) []streamEntry {
	var out []streamEntry
	for i := s.searchIdx(from); i < len(s.entries); i++ {
		if to.Less(s.entries[i].id) {
			break
		}
		out = append(out, s.entries[i])
		if count > 0 && len(out) >= count {
			break
		}
	}
	return out
}

// trimMaxLen keeps only the newest max entries, returning evicted count.
func (s *stream) trimMaxLen(max int64) int64 {
	if int64(len(s.entries)) <= max {
		return 0
	}
	cut := int64(len(s.entries)) - max
	s.entries = append([]streamEntry(nil), s.entries[cut:]...)
	return cut
}
