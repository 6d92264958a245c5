// Package redisclient is a minimal Redis client used by the Redis-backed
// workflow mappings. It implements a connection pool over RESP2 plus typed
// helpers for exactly the command surface the engine needs (streams with
// consumer groups, hashes, counters, the fenced compounds). A typed helper
// exists only while something outside this package calls it; the server it
// talks to, internal/miniredis, serves the same set.
//
// Concurrent retry-safe commands share a connection: a command that finds
// another retry-safe command in flight joins its connection, so their bytes
// go out in one write and their replies come back in one read. Each still
// counts as one round trip per attempt in Stats. Everything else — commands
// a retry may not repeat, pipelines, blocking reads — holds a connection of
// its own.
package redisclient

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resp"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("redisclient: client closed")

// errInterrupted fails the blocking reads InterruptBlocking ends.
var errInterrupted = errors.New("blocking read interrupted")

// ServerError is an error reply from the server (for example NOGROUP or
// WRONGTYPE).
type ServerError string

// Error implements the error interface.
func (e ServerError) Error() string { return "redis: " + string(e) }

// Client is a pooled Redis client, safe for concurrent use.
type Client struct {
	addr string

	mu     sync.Mutex
	conns  map[*conn]struct{} // every open connection, idle or in use
	idle   []*conn
	shared *conn // the connection retry-safe commands join while one is in flight
	closed bool
	// interrupts counts InterruptBlocking calls: a blocking read that dials
	// is in no connection InterruptBlocking can see, so it checks the count
	// after the dial.
	interrupts uint64

	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// Dialer, when set, replaces the default TCP dialer — the hook tests and
	// proxies use to interpose on connection establishment.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	// CmdTimeout bounds each command round trip with a connection deadline,
	// set at every write, so it bounds each write and each wait for a reply
	// (a blocking read adds its block duration on top). Zero disables
	// deadlines.
	CmdTimeout time.Duration
	// Retries is how many times a failed *retry-safe* command (see Retryable)
	// is re-sent after a transient failure, with a backoff before each
	// attempt (see backoff). Zero disables retries.
	Retries int

	statRoundTrips atomic.Int64
	statRetries    atomic.Int64
}

// maxIdle bounds the number of pooled idle connections.
const maxIdle = 64

// Dial creates a client for the server at addr. Connections are created
// lazily and at most maxIdle idle ones are kept. The returned client retries
// retry-safe commands twice with exponential backoff (2 ms doubling up to
// 50 ms) and bounds every round trip with a generous deadline; zero Retries
// or CmdTimeout to opt out.
func Dial(addr string) *Client {
	return &Client{
		addr:        addr,
		DialTimeout: 5 * time.Second,
		CmdTimeout:  30 * time.Second,
		Retries:     2,
	}
}

// Addr is the server address the client dials: two clients with the same
// address talk to the same server.
func (c *Client) Addr() string { return c.addr }

// Stats are cumulative client-side counters: server round trips attempted
// (one per Do attempt or pipeline flush, whether or not the command shared
// its connection's write and read with others) and retries among them.
type Stats struct {
	RoundTrips int64
	Retries    int64
}

// Stats returns the client's cumulative counters. The state package's
// fenced-mutation test asserts on round-trip deltas to prove a fenced
// mutation costs one trip, not two.
func (c *Client) Stats() Stats {
	return Stats{RoundTrips: c.statRoundTrips.Load(), Retries: c.statRetries.Load()}
}

// Close closes every connection. In-flight commands fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns, c.idle = nil, nil
	c.mu.Unlock()
	for cn := range conns {
		cn.mu.Lock()
		cn.fail(ErrClosed)
		cn.mu.Unlock()
	}
	return nil
}

// InterruptBlocking fails every blocking read in flight at once. Each holds
// its own connection, which is closed and dropped; other commands are
// untouched and the client stays usable.
func (c *Client) InterruptBlocking() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interrupts++
	for cn := range c.conns {
		if cn.users > 0 && cn.blocking {
			cn.mu.Lock()
			cn.fail(errInterrupted)
			cn.mu.Unlock()
		}
	}
}

// acquire returns a connection for one command. A retry-safe command (share)
// joins the connection another retry-safe command has in flight; otherwise
// it takes an idle connection or dials one, as an exclusive command always
// does, and makes that the shared one. A serial caller therefore runs on one
// connection, and a dropped shared connection fails only commands the retry
// loop re-sends. A blocking read marks its connection blocking; one that had
// to dial fails instead when InterruptBlocking ran meanwhile, as it would
// have failed on a connection the interrupt could see.
func (c *Client) acquire(share, blocking bool) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if sh := c.shared; share && sh != nil && !sh.broken.Load() {
		sh.users++
		c.mu.Unlock()
		return sh, nil
	}
	var cn *conn
	if n := len(c.idle); n > 0 {
		cn = c.idle[n-1]
		c.idle = c.idle[:n-1]
	} else {
		interrupts := c.interrupts
		c.mu.Unlock()
		var err error
		if cn, err = c.dial(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			cn.nc.Close()
			return nil, ErrClosed
		}
		if c.conns == nil {
			c.conns = make(map[*conn]struct{})
		}
		c.conns[cn] = struct{}{}
		if blocking && c.interrupts != interrupts {
			cn.users = 1
			c.mu.Unlock()
			c.release(cn) // unused, so it joins the idle pool
			return nil, errInterrupted
		}
	}
	cn.users, cn.blocking = 1, blocking
	if sh := c.shared; share && (sh == nil || sh.broken.Load()) {
		c.shared = cn
	}
	c.mu.Unlock()
	return cn, nil
}

func (c *Client) dial() (*conn, error) {
	dial := c.Dialer
	if dial == nil {
		dial = net.DialTimeout
	}
	nc, err := dial("tcp", c.addr, c.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("redisclient: dial %s: %w", c.addr, err)
	}
	cn := &conn{nc: nc, r: resp.NewReader(nc)}
	cn.w = resp.NewWriter(&cn.out)
	cn.wrote.L = &cn.mu
	return cn, nil
}

// release ends one command's hold on cn. The last command out returns it to
// the pool, or closes it when it failed.
func (c *Client) release(cn *conn) {
	c.mu.Lock()
	if cn.users--; cn.users > 0 {
		c.mu.Unlock()
		return
	}
	if c.shared == cn {
		c.shared = nil
	}
	keep := !cn.broken.Load() && !c.closed && len(c.idle) < maxIdle
	if keep {
		c.idle = append(c.idle, cn)
	} else {
		delete(c.conns, cn)
	}
	c.mu.Unlock()
	if !keep {
		cn.nc.Close()
	}
}

// Do sends one command and returns the reply value. Failures come back as a
// *CmdError naming the failing command; server error replies wrap a
// ServerError. Retry-safe commands (see Retryable) are transparently retried
// with exponential backoff on transient failures, and share a connection
// with the other retry-safe commands in flight (see acquire).
func (c *Client) Do(argv ...string) (resp.Value, error) {
	return c.do(0, argv)
}

// do is the shared command path. blockFor extends the per-command deadline
// for a blocking read, which never shares its connection.
func (c *Client) do(blockFor time.Duration, argv []string) (resp.Value, error) {
	if blockFor < 0 {
		blockFor = 0
	}
	retrySafe := Retryable(argv)
	attempts := 1
	if c.Retries > 0 && retrySafe {
		attempts = c.Retries + 1
	}
	cmds := [][]string{argv}
	var v resp.Value
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.statRetries.Add(1)
			time.Sleep(backoff(a))
		}
		c.statRoundTrips.Add(1)
		v, _, err = c.roundTrip(cmds, nil, retrySafe && blockFor == 0, blockFor)
		if err == nil && v.Type == resp.Error {
			err = ServerError(v.Str)
		}
		if err == nil || !retryableError(err) {
			break
		}
	}
	if err != nil {
		return resp.Value{}, &CmdError{Cmd: argv[0], Err: err}
	}
	return v, nil
}

// Pipeline writes all commands over one connection before reading any reply,
// so the batch costs a single network round trip instead of one per command.
// Replies come back in command order; the first server error reply is
// returned as a *CmdError naming the failing command (later replies are still
// drained so the connection stays reusable). The whole pipeline is retried on
// transient transport failures only when every command in it is retry-safe.
// A pipeline never shares its connection.
func (c *Client) Pipeline(cmds [][]string) ([]resp.Value, error) {
	if len(cmds) == 0 {
		return nil, nil
	}
	attempts := 1
	if c.Retries > 0 {
		allRetryable := true
		for _, argv := range cmds {
			if !Retryable(argv) {
				allRetryable = false
				break
			}
		}
		if allRetryable {
			attempts = c.Retries + 1
		}
	}
	var replies []resp.Value
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.statRetries.Add(1)
			time.Sleep(backoff(a))
		}
		c.statRoundTrips.Add(1)
		_, replies, err = c.roundTrip(cmds, make([]resp.Value, 0, len(cmds)), false, 0)
		if err == nil || !retryableError(err) {
			break
		}
	}
	if err != nil {
		return nil, &CmdError{Cmd: cmds[0][0], Err: err}
	}
	// A server error reply is a delivered result, not a transient fault.
	for i, v := range replies {
		if v.Type == resp.Error {
			return replies, &CmdError{Cmd: cmds[i][0], Err: ServerError(v.Str)}
		}
	}
	return replies, nil
}

// errConnDropped fails the commands queued on a connection that an injected
// fault dropped under another command: a retryable transport error, as a
// real drop would be.
var errConnDropped = errors.New("connection dropped")

// conn is one pooled connection. Commands queue on it in wire order: their
// encoded bytes go out in group-committed writes, and their replies are read
// back by whichever queued command holds the reader role, which hands each
// reply to its owner. An exclusive command is alone on its connection and
// takes both roles itself; the shared connection carries every retry-safe
// command the client has in flight.
type conn struct {
	nc       net.Conn
	r        *resp.Reader // used only by the reader-role holder
	users    int          // commands holding the conn; guarded by Client.mu
	blocking bool         // a blocking read's, while users > 0; guarded by Client.mu
	broken   atomic.Bool  // set once failed: no command may join it

	mu      sync.Mutex
	w       *resp.Writer // encodes into out
	out     pendingBytes // encoded commands not yet written
	spare   []byte       // out's other buffer, swapped in while a write runs
	writing bool         // some command is writing out
	reading bool         // some queued command holds the reader role
	queue   []*call      // commands whose replies are due, in wire order
	queued  uint64       // commands encoded so far
	sent    uint64       // commands written so far
	wrote   sync.Cond    // signalled after each write and on failure
	err     error        // why the conn failed; nil while usable
}

// maxSpare caps the write buffer a connection keeps between writes: one
// large command must not pin its size for the connection's lifetime.
const maxSpare = 64 << 10

// pendingBytes is the in-memory sink commands are encoded into.
type pendingBytes struct{ b []byte }

func (p *pendingBytes) Write(b []byte) (int, error) {
	p.b = append(p.b, b...)
	return len(b), nil
}

// call is one command, or one pipeline, queued on a conn.
type call struct {
	n       int // replies due
	replies []resp.Value
	one     [1]resp.Value // replies' backing store for a single command
	err     error
	seq     uint64 // the conn's queued count once this call's bytes were encoded
	done    bool   // replies complete, or err set
	lead    bool   // holds the conn's reader role
	waiting bool   // parked on wake
	wake    chan struct{}
}

var calls = sync.Pool{New: func() any { return &call{wake: make(chan struct{}, 1)} }}

// roundTrip sends cmds as one unit and waits for their replies. A pipeline
// passes replies, empty with room for every reply, and gets it back filled;
// a single command passes nil and gets its reply as v. share lets it join
// the client's shared connection. Every write and every wait for a reply is
// bounded by CmdTimeout plus blockFor.
func (c *Client) roundTrip(cmds [][]string, replies []resp.Value, share bool, blockFor time.Duration) (v resp.Value, _ []resp.Value, err error) {
	if err := faultinject.FireCmd(faultinject.ProbeConnWrite, cmds[0][0]); err != nil {
		return v, nil, err
	}
	var cn *conn
	for {
		if cn, err = c.acquire(share, blockFor > 0); err != nil {
			return v, nil, err
		}
		cn.mu.Lock()
		if cn.err == nil {
			break
		}
		// Joined a connection that failed before this command was queued:
		// nothing was sent, so take another.
		cn.mu.Unlock()
		c.release(cn)
	}
	cl := calls.Get().(*call)
	cl.n, cl.replies = len(cmds), replies
	if replies == nil {
		cl.replies = cl.one[:0]
	}
	for _, argv := range cmds {
		_ = cn.w.WriteCommand(argv...) // into memory: cannot fail
	}
	cn.queued++
	cl.seq = cn.queued
	cn.queue = append(cn.queue, cl)
	if !cn.reading {
		cn.reading, cl.lead = true, true
	}
	var timeout time.Duration
	if c.CmdTimeout > 0 {
		timeout = c.CmdTimeout + blockFor
	}
	if !cn.writing {
		cn.flush(timeout)
	}
	if faultinject.Active() != nil {
		cn.probeRead(cl, cmds[0][0])
	}
	for !cl.done {
		if cl.lead {
			cn.read(cl)
			continue
		}
		cl.waiting = true
		cn.mu.Unlock()
		<-cl.wake
		cn.mu.Lock()
	}
	cn.mu.Unlock()
	if err = cl.err; err == nil {
		v, replies = cl.one[0], cl.replies
	}
	*cl = call{wake: cl.wake} // a pooled call holds no reply and no role
	calls.Put(cl)
	c.release(cn)
	return v, replies, err
}

// probeRead fires ProbeConnRead once cl's bytes are on the wire. A fault
// fails cl with the injected error and drops the connection under the
// commands still queued on it. Called and returns with cn.mu held.
func (cn *conn) probeRead(cl *call, cmd string) {
	for cl.seq > cn.sent && cn.err == nil {
		cn.wrote.Wait()
	}
	if cn.err != nil {
		return
	}
	cn.mu.Unlock()
	err := faultinject.FireCmd(faultinject.ProbeConnRead, cmd)
	cn.mu.Lock()
	if err != nil {
		cn.fail(errConnDropped)
		cl.err, cl.done = err, true
	}
}

// flush writes everything encoded so far, looping while other commands join,
// with one deadline per write. Called with cn.mu held and no write running.
func (cn *conn) flush(timeout time.Duration) {
	cn.writing = true
	for cn.err == nil && len(cn.out.b) > 0 {
		buf, upto := cn.out.b, cn.queued
		cn.out.b, cn.spare = cn.spare[:0], nil
		cn.mu.Unlock()
		if timeout > 0 {
			_ = cn.nc.SetDeadline(time.Now().Add(timeout))
		}
		_, err := cn.nc.Write(buf)
		cn.mu.Lock()
		if cap(buf) <= maxSpare {
			cn.spare = buf[:0]
		}
		if err != nil {
			cn.fail(fmt.Errorf("write: %w", err))
			break
		}
		cn.sent = upto
		cn.wrote.Broadcast()
	}
	cn.writing = false
}

// read holds the reader role for cl: it reads replies in wire order, handing
// each to its command, until cl's own are in; then it hands out the replies
// already buffered, which costs no syscall, and passes the role to the
// oldest command still waiting. Called and returns with cn.mu held.
func (cn *conn) read(cl *call) {
	for cn.err == nil && len(cn.queue) > 0 && (!cl.done || cn.r.Buffered() > 0) {
		head := cn.queue[0]
		cn.mu.Unlock()
		v, err := cn.r.ReadValue()
		cn.mu.Lock()
		if cn.err != nil {
			break // failed meanwhile: head has completed with the failure
		}
		if err != nil {
			cn.fail(fmt.Errorf("read reply: %w", err))
			break
		}
		if head.replies = append(head.replies, v); len(head.replies) == head.n {
			n := copy(cn.queue, cn.queue[1:])
			cn.queue[n] = nil
			cn.queue = cn.queue[:n]
			head.done = true
			head.wakeUp()
		}
	}
	cl.lead = false
	if cn.err == nil && len(cn.queue) > 0 {
		next := cn.queue[0]
		next.lead = true
		next.wakeUp()
	} else {
		cn.reading = false
	}
}

// fail marks the connection dead: it closes at once, which unblocks a
// reader or writer in a syscall, and every queued command completes with
// err. The first failure wins. Called with cn.mu held.
func (cn *conn) fail(err error) {
	if cn.err != nil {
		return
	}
	cn.err = err
	cn.broken.Store(true)
	cn.nc.Close()
	for i, q := range cn.queue {
		q.err, q.done = err, true
		q.wakeUp()
		cn.queue[i] = nil
	}
	cn.queue = cn.queue[:0]
	cn.wrote.Broadcast()
}

// wakeUp resumes cl if it is parked; the caller holds its conn's mu and has
// just completed cl or handed it the reader role. The send never blocks: a
// parked call gets exactly one token, and wake holds one.
func (cl *call) wakeUp() {
	if cl.waiting {
		cl.waiting = false
		cl.wake <- struct{}{}
	}
}

// DoInt runs a command expecting an integer reply.
func (c *Client) DoInt(argv ...string) (int64, error) {
	v, err := c.Do(argv...)
	if err != nil {
		return 0, err
	}
	if v.Type != resp.Integer {
		return 0, fmt.Errorf("redisclient: %s: expected integer reply, got %s", argv[0], v.Type)
	}
	return v.Int, nil
}

// DoString runs a command expecting a (possibly nil) string reply. Nil
// replies return ok=false.
func (c *Client) DoString(argv ...string) (string, bool, error) {
	v, err := c.Do(argv...)
	if err != nil {
		return "", false, err
	}
	if v.IsNull() {
		return "", false, nil
	}
	return v.Text(), true, nil
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if v.Str != "PONG" {
		return fmt.Errorf("redisclient: unexpected PING reply %q", v.Str)
	}
	return nil
}

// FlushAll clears the server keyspace.
func (c *Client) FlushAll() error {
	_, err := c.Do("FLUSHALL")
	return err
}

// --- Counters / hashes -------------------------------------------------------

// IncrBy adds delta to a counter key.
func (c *Client) IncrBy(key string, delta int64) (int64, error) {
	return c.DoInt("INCRBY", key, strconv.FormatInt(delta, 10))
}

// Get fetches a string key; ok=false when missing.
func (c *Client) Get(key string) (string, bool, error) { return c.DoString("GET", key) }

// Set stores a string key.
func (c *Client) Set(key, value string) error {
	_, err := c.Do("SET", key, value)
	return err
}

// HSet sets hash fields given alternating field/value pairs.
func (c *Client) HSet(key string, fieldValues ...string) error {
	_, err := c.Do(append([]string{"HSET", key}, fieldValues...)...)
	return err
}

// HGetAll fetches all fields of a hash.
func (c *Client) HGetAll(key string) (map[string]string, error) {
	v, err := c.Do("HGETALL", key)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(v.Array)/2)
	for i := 0; i+1 < len(v.Array); i += 2 {
		out[v.Array[i].Str] = v.Array[i+1].Str
	}
	return out, nil
}

// HGet fetches one hash field; ok=false when the field is missing.
func (c *Client) HGet(key, field string) (string, bool, error) {
	return c.DoString("HGET", key, field)
}

// HLen returns the number of fields in a hash.
func (c *Client) HLen(key string) (int64, error) { return c.DoInt("HLEN", key) }

// HIncrBy adds delta to an integer hash field, returning the new value. The
// increment is atomic on the server, which makes it the fast path for keyed
// counter state.
func (c *Client) HIncrBy(key, field string, delta int64) (int64, error) {
	return c.DoInt("HINCRBY", key, field, strconv.FormatInt(delta, 10))
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	return c.DoInt(append([]string{"DEL"}, keys...)...)
}

// millis renders d in the whole milliseconds the protocol takes, rounding a
// positive duration up: a sub-millisecond BLOCK sent as 0 would block
// forever, PX 0 is rejected, and a min-idle of 0 reclaims live deliveries.
func millis(d time.Duration) string {
	n := d.Milliseconds()
	if d > 0 && time.Duration(n)*time.Millisecond < d {
		n++
	}
	return strconv.FormatInt(n, 10)
}

// --- Streams -----------------------------------------------------------------

// StreamEntry is one stream record as seen by a client.
type StreamEntry struct {
	ID string
	// Fields alternates field names and values, in the entry's order.
	Fields []string
}

// Field returns the value of the entry's field name ("" when absent).
func (e StreamEntry) Field(name string) string {
	for i := 0; i+1 < len(e.Fields); i += 2 {
		if e.Fields[i] == name {
			return e.Fields[i+1]
		}
	}
	return ""
}

// StreamMessages groups the entries read from one stream key.
type StreamMessages struct {
	Key     string
	Entries []StreamEntry
}

// XAddValues appends an entry with an automatic ID from alternating
// field/value pairs, returning the assigned ID.
func (c *Client) XAddValues(key string, fieldValues ...string) (string, error) {
	args := append([]string{"XADD", key, "*"}, fieldValues...)
	s, _, err := c.DoString(args...)
	return s, err
}

// XLen returns the number of entries in the stream.
func (c *Client) XLen(key string) (int64, error) { return c.DoInt("XLEN", key) }

// XGroupCreate creates a consumer group at the given start ("0" or "$"),
// creating the stream when necessary. Existing groups are not an error.
func (c *Client) XGroupCreate(key, group, start string) error {
	_, err := c.Do("XGROUP", "CREATE", key, group, start, "MKSTREAM")
	var se ServerError
	if errors.As(err, &se) && len(se) >= 9 && se[:9] == "BUSYGROUP" {
		return nil
	}
	return err
}

// XReadGroup reads new entries (id ">") for a consumer, blocking up to block
// (0 means non-blocking). It returns nil when nothing is available.
func (c *Client) XReadGroup(group, consumer string, count int, block time.Duration, key string) ([]StreamEntry, error) {
	msgs, err := c.XReadGroupStreams(group, consumer, count, block, key)
	if err != nil || len(msgs) == 0 {
		return nil, err
	}
	return msgs[0].Entries, nil
}

// XReadGroupStreams reads new entries of several streams in one command:
// up to count from each, blocking up to block (0 means non-blocking) until
// any of them has one. Only streams that delivered entries appear in the
// result, in key order.
func (c *Client) XReadGroupStreams(group, consumer string, count int, block time.Duration, keys ...string) ([]StreamMessages, error) {
	return c.XReadGroupLeased(group, consumer, count, block, keys, nil)
}

// XReadGroupLeased is XReadGroupStreams whose last len(leases)/2 keys are
// guarded by leases, (lease key, token) pairs in key order: the server reads
// such a stream only while its lease key holds the token.
func (c *Client) XReadGroupLeased(group, consumer string, count int, block time.Duration, keys, leases []string) ([]StreamMessages, error) {
	v, err := c.do(block, xreadgroupArgs(group, consumer, count, block, keys, leases))
	if err != nil {
		return nil, err
	}
	return parseStreamsReply(v), nil
}

// XReadGroupLeasedAfter is XReadGroupLeased sent in one round trip after
// the commands pre, which the server runs first, in order; their replies
// come back in pre's order. The batch is never re-sent.
func (c *Client) XReadGroupLeasedAfter(pre [][]string, group, consumer string, count int, block time.Duration, keys, leases []string) ([]resp.Value, []StreamMessages, error) {
	cmds := append(pre[:len(pre):len(pre)], xreadgroupArgs(group, consumer, count, block, keys, leases))
	c.statRoundTrips.Add(1)
	_, replies, err := c.roundTrip(cmds, make([]resp.Value, 0, len(cmds)), false, max(block, 0))
	if err != nil {
		return nil, nil, &CmdError{Cmd: cmds[0][0], Err: err}
	}
	for i, v := range replies {
		if v.Type == resp.Error {
			return nil, nil, &CmdError{Cmd: cmds[i][0], Err: ServerError(v.Str)}
		}
	}
	return replies[:len(pre)], parseStreamsReply(replies[len(pre)]), nil
}

func xreadgroupArgs(group, consumer string, count int, block time.Duration, keys, leases []string) []string {
	args := make([]string, 0, 11+2*len(keys)+len(leases))
	args = append(args, "XREADGROUP", "GROUP", group, consumer)
	if count > 0 {
		args = append(args, "COUNT", strconv.Itoa(count))
	}
	if block > 0 {
		args = append(args, "BLOCK", millis(block))
	}
	if len(leases) > 0 {
		args = append(args, "LEASES", strconv.Itoa(len(leases)/2))
		args = append(args, leases...)
	}
	args = append(args, "STREAMS")
	args = append(args, keys...)
	for range keys {
		args = append(args, ">")
	}
	return args
}

// XAck acknowledges processed entries, returning how many were pending.
func (c *Client) XAck(key, group string, ids ...string) (int64, error) {
	return c.DoInt(append([]string{"XACK", key, group}, ids...)...)
}

// XPendingIDs lists up to count entry IDs currently pending for one
// consumer (the XPENDING extended form with a consumer filter). The lease
// heartbeat uses it to find which of its deliveries a worker still owns
// after an XAUTOCLAIM may have moved some to another consumer.
func (c *Client) XPendingIDs(key, group, consumer string, count int) ([]string, error) {
	v, err := c.Do("XPENDING", key, group, "-", "+", strconv.Itoa(count), consumer)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(v.Array))
	for _, row := range v.Array {
		if len(row.Array) >= 1 {
			out = append(out, row.Array[0].Str)
		}
	}
	return out, nil
}

// XClaimJustID claims ids onto consumer with XCLAIM ... JUSTID, returning the
// IDs actually claimed. JUSTID resets each entry's idle clock without bumping
// its delivery counter, so a worker claiming its own pending entries acts as
// a lease heartbeat: the entries stay ineligible for XAUTOCLAIM as long as
// the worker keeps making progress.
func (c *Client) XClaimJustID(key, group, consumer string, minIdle time.Duration, ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	args := make([]string, 0, len(ids)+6)
	args = append(args, "XCLAIM", key, group, consumer, strconv.FormatInt(minIdle.Milliseconds(), 10))
	args = append(args, ids...)
	args = append(args, "JUSTID")
	v, err := c.Do(args...)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(v.Array))
	for _, e := range v.Array {
		out = append(out, e.Str)
	}
	return out, nil
}

// XAutoClaim claims entries idle for at least minIdle onto consumer, starting
// the PEL scan at start ("0-0" to scan from the beginning). It returns the
// next cursor and the claimed entries.
func (c *Client) XAutoClaim(key, group, consumer string, minIdle time.Duration, start string, count int) (string, []StreamEntry, error) {
	v, err := c.Do(xautoclaimArgs(key, group, consumer, minIdle, start, count)...)
	if err != nil {
		return "", nil, err
	}
	if len(v.Array) < 2 {
		return "0-0", nil, nil
	}
	return v.Array[0].Str, parseEntries(v.Array[1]), nil
}

// XAutoClaimStreams is XAutoClaim from the start of each stream's PEL,
// pipelined over several streams in one round trip. Only streams that
// yielded entries appear in the result, in key order.
func (c *Client) XAutoClaimStreams(group, consumer string, minIdle time.Duration, count int, keys ...string) ([]StreamMessages, error) {
	cmds := make([][]string, len(keys))
	for i, key := range keys {
		cmds[i] = xautoclaimArgs(key, group, consumer, minIdle, "0-0", count)
	}
	replies, err := c.Pipeline(cmds)
	if err != nil {
		return nil, err
	}
	var out []StreamMessages
	for i, v := range replies {
		if len(v.Array) < 2 || len(v.Array[1].Array) == 0 {
			continue
		}
		out = append(out, StreamMessages{Key: keys[i], Entries: parseEntries(v.Array[1])})
	}
	return out, nil
}

func xautoclaimArgs(key, group, consumer string, minIdle time.Duration, start string, count int) []string {
	return []string{"XAUTOCLAIM", key, group, consumer, millis(minIdle), start, "COUNT", strconv.Itoa(count)}
}

// parseStreamsReply decodes the [[key, [entries...]]...] XREAD/XREADGROUP shape.
func parseStreamsReply(v resp.Value) []StreamMessages {
	if v.IsNull() {
		return nil
	}
	out := make([]StreamMessages, 0, len(v.Array))
	for _, sv := range v.Array {
		if len(sv.Array) != 2 {
			continue
		}
		out = append(out, StreamMessages{
			Key:     sv.Array[0].Str,
			Entries: parseEntries(sv.Array[1]),
		})
	}
	return out
}

// parseEntries decodes [[id, [f, v, ...]]...].
func parseEntries(v resp.Value) []StreamEntry {
	entries := make([]StreamEntry, 0, len(v.Array))
	for _, ev := range v.Array {
		if len(ev.Array) != 2 {
			continue
		}
		fv := ev.Array[1].Array
		e := StreamEntry{ID: ev.Array[0].Str, Fields: make([]string, len(fv))}
		for i, f := range fv {
			e.Fields[i] = f.Str
		}
		entries = append(entries, e)
	}
	return entries
}
