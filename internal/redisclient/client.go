// Package redisclient is a minimal Redis client used by the Redis-backed
// workflow mappings. It implements a connection pool over RESP2 plus typed
// helpers for exactly the command surface the engine needs (streams with
// consumer groups, hashes, counters, the fenced compounds). A typed helper
// exists only while something outside this package calls it; the server it
// talks to, internal/miniredis, serves the same set.
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

// ServerError is an error reply from the server (for example NOGROUP or
// WRONGTYPE).
type ServerError string

// Error implements the error interface.
func (e ServerError) Error() string { return "redis: " + string(e) }

// Client is a pooled Redis client, safe for concurrent use.
type Client struct {
	addr string

	mu     sync.Mutex
	idle   []*conn
	closed bool

	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// MaxIdle bounds the number of pooled idle connections.
	MaxIdle int
	// Dialer, when set, replaces the default TCP dialer — the hook tests and
	// proxies use to interpose on connection establishment.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	// CmdTimeout bounds each command round trip with a connection deadline
	// (a blocking read adds its block duration on top). Zero disables
	// deadlines.
	CmdTimeout time.Duration
	// Retries is how many times a failed *retry-safe* command (see Retryable)
	// is re-sent after a transient failure. Zero disables retries.
	Retries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it (with jitter) up to RetryMaxBackoff.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the exponential backoff.
	RetryMaxBackoff time.Duration

	statRoundTrips atomic.Int64
	statRetries    atomic.Int64
}

// conn is one pooled connection.
type conn struct {
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
}

// Dial creates a client for the server at addr. Connections are created
// lazily. The returned client retries retry-safe commands twice with
// exponential backoff and bounds every round trip with a generous deadline;
// zero any of the knobs to opt out.
func Dial(addr string) *Client {
	return &Client{
		addr:            addr,
		DialTimeout:     5 * time.Second,
		MaxIdle:         64,
		CmdTimeout:      30 * time.Second,
		Retries:         2,
		RetryBackoff:    2 * time.Millisecond,
		RetryMaxBackoff: 50 * time.Millisecond,
	}
}

// Addr is the server address the client dials: two clients with the same
// address talk to the same server.
func (c *Client) Addr() string { return c.addr }

// Stats are cumulative client-side counters: server round trips attempted
// (one per Do attempt or pipeline flush) and retries among them.
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

// Close releases all pooled connections. In-flight commands fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cn := range c.idle {
		cn.nc.Close()
	}
	c.idle = nil
	return nil
}

func (c *Client) getConn() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	dial := c.Dialer
	if dial == nil {
		dial = net.DialTimeout
	}
	nc, err := dial("tcp", c.addr, c.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("redisclient: dial %s: %w", c.addr, err)
	}
	return &conn{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}, nil
}

func (c *Client) putConn(cn *conn, broken bool) {
	if broken {
		cn.nc.Close()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= c.MaxIdle {
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
}

// Do sends one command and returns the reply value. Failures come back as a
// *CmdError naming the failing command; server error replies wrap a
// ServerError. Retry-safe commands (see Retryable) are transparently retried
// with exponential backoff on transient failures.
func (c *Client) Do(argv ...string) (resp.Value, error) {
	return c.do(0, argv)
}

// do is the shared command path. blockFor extends the per-command deadline
// for a blocking read.
func (c *Client) do(blockFor time.Duration, argv []string) (resp.Value, error) {
	if blockFor < 0 {
		blockFor = 0
	}
	attempts := 1
	if c.Retries > 0 && Retryable(argv) {
		attempts = c.Retries + 1
	}
	var v resp.Value
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.statRetries.Add(1)
			time.Sleep(backoff(c.RetryBackoff, c.RetryMaxBackoff, a))
		}
		c.statRoundTrips.Add(1)
		v, err = c.doOnce(blockFor, argv)
		if err == nil || !retryableError(err) {
			break
		}
	}
	if err != nil {
		return resp.Value{}, &CmdError{Cmd: argv[0], Err: err}
	}
	return v, nil
}

// doOnce performs one command round trip on one pooled connection.
func (c *Client) doOnce(blockFor time.Duration, argv []string) (resp.Value, error) {
	if err := faultinject.FireCmd(faultinject.ProbeConnWrite, argv[0]); err != nil {
		return resp.Value{}, err
	}
	cn, err := c.getConn()
	if err != nil {
		return resp.Value{}, err
	}
	hasDeadline := c.CmdTimeout > 0
	if hasDeadline {
		_ = cn.nc.SetDeadline(time.Now().Add(c.CmdTimeout + blockFor))
	}
	if err := cn.w.WriteCommand(argv...); err != nil {
		c.putConn(cn, true)
		return resp.Value{}, fmt.Errorf("write: %w", err)
	}
	// The command is on the wire: a fault or conn error from here on leaves
	// the client unable to know whether the server executed it — the window
	// only retry-safe commands may cross.
	if err := faultinject.FireCmd(faultinject.ProbeConnRead, argv[0]); err != nil {
		c.putConn(cn, true)
		return resp.Value{}, err
	}
	v, err := cn.r.ReadValue()
	if err != nil {
		c.putConn(cn, true)
		return resp.Value{}, fmt.Errorf("read reply: %w", err)
	}
	if hasDeadline {
		_ = cn.nc.SetDeadline(time.Time{})
	}
	c.putConn(cn, false)
	if v.Type == resp.Error {
		return resp.Value{}, ServerError(v.Str)
	}
	return v, nil
}

// Pipeline writes all commands over one connection before reading any reply,
// so the batch costs a single network round trip instead of one per command.
// Replies come back in command order; the first server error reply is
// returned as a *CmdError naming the failing command (later replies are still
// drained so the connection stays reusable). The whole pipeline is retried on
// transient transport failures only when every command in it is retry-safe.
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
			time.Sleep(backoff(c.RetryBackoff, c.RetryMaxBackoff, a))
		}
		c.statRoundTrips.Add(1)
		replies, err = c.pipelineOnce(cmds)
		// Retry only transport-level failures (no replies came back); a
		// server error reply is a delivered result, not a transient fault.
		if replies != nil || err == nil || !retryableError(err) {
			break
		}
	}
	return replies, err
}

// pipelineOnce performs one pipelined round trip.
func (c *Client) pipelineOnce(cmds [][]string) ([]resp.Value, error) {
	if err := faultinject.FireCmd(faultinject.ProbeConnWrite, cmds[0][0]); err != nil {
		return nil, &CmdError{Cmd: cmds[0][0], Err: err}
	}
	cn, err := c.getConn()
	if err != nil {
		return nil, &CmdError{Cmd: cmds[0][0], Err: err}
	}
	hasDeadline := c.CmdTimeout > 0
	if hasDeadline {
		_ = cn.nc.SetDeadline(time.Now().Add(c.CmdTimeout))
	}
	for _, argv := range cmds {
		if err := cn.w.WriteCommandBuffered(argv...); err != nil {
			c.putConn(cn, true)
			return nil, &CmdError{Cmd: argv[0], Err: fmt.Errorf("pipeline write: %w", err)}
		}
	}
	if err := cn.w.Flush(); err != nil {
		c.putConn(cn, true)
		return nil, &CmdError{Cmd: cmds[0][0], Err: fmt.Errorf("pipeline flush: %w", err)}
	}
	if err := faultinject.FireCmd(faultinject.ProbeConnRead, cmds[0][0]); err != nil {
		c.putConn(cn, true)
		return nil, &CmdError{Cmd: cmds[0][0], Err: err}
	}
	replies := make([]resp.Value, 0, len(cmds))
	var firstErr error
	for i := range cmds {
		v, err := cn.r.ReadValue()
		if err != nil {
			c.putConn(cn, true)
			return nil, &CmdError{Cmd: cmds[i][0], Err: fmt.Errorf("pipeline read reply: %w", err)}
		}
		if v.Type == resp.Error && firstErr == nil {
			firstErr = &CmdError{Cmd: cmds[i][0], Err: ServerError(v.Str)}
		}
		replies = append(replies, v)
	}
	if hasDeadline {
		_ = cn.nc.SetDeadline(time.Time{})
	}
	c.putConn(cn, false)
	return replies, firstErr
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

// HDel removes hash fields, returning how many existed.
func (c *Client) HDel(key string, fields ...string) (int64, error) {
	return c.DoInt(append([]string{"HDEL", key}, fields...)...)
}

// HKeys lists the field names of a hash.
func (c *Client) HKeys(key string) ([]string, error) {
	v, err := c.Do("HKEYS", key)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(v.Array))
	for _, f := range v.Array {
		out = append(out, f.Str)
	}
	return out, nil
}

// HLen returns the number of fields in a hash.
func (c *Client) HLen(key string) (int64, error) { return c.DoInt("HLEN", key) }

// HIncrBy adds delta to an integer hash field, returning the new value. The
// increment is atomic on the server, which makes it the fast path for keyed
// counter state.
func (c *Client) HIncrBy(key, field string, delta int64) (int64, error) {
	return c.DoInt("HINCRBY", key, field, strconv.FormatInt(delta, 10))
}

// SetNX sets key only when absent, reporting whether it was set; a non-zero
// ttl expires the key (SET NX PX, one atomic command). It is the primitive
// behind the state layer's per-key update locks.
func (c *Client) SetNX(key, value string, ttl time.Duration) (bool, error) {
	args := []string{"SET", key, value, "NX"}
	if ttl > 0 {
		args = append(args, "PX", strconv.FormatInt(ttl.Milliseconds(), 10))
	}
	v, err := c.Do(args...)
	if err != nil {
		return false, err
	}
	return !v.IsNull(), nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	return c.DoInt(append([]string{"DEL"}, keys...)...)
}

// --- Streams -----------------------------------------------------------------

// StreamEntry is one stream record as seen by a client.
type StreamEntry struct {
	ID     string
	Fields map[string]string
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
	args := []string{"XREADGROUP", "GROUP", group, consumer}
	if count > 0 {
		args = append(args, "COUNT", strconv.Itoa(count))
	}
	if block > 0 {
		args = append(args, "BLOCK", strconv.FormatInt(block.Milliseconds(), 10))
	}
	args = append(args, "STREAMS", key, ">")
	v, err := c.do(block, args)
	if err != nil {
		return nil, err
	}
	msgs := parseStreamsReply(v)
	for _, m := range msgs {
		if m.Key == key {
			return m.Entries, nil
		}
	}
	return nil, nil
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

// ConsumerInfo is one row of XINFO CONSUMERS.
type ConsumerInfo struct {
	Name    string
	Pending int64
	// Idle is the time since the consumer's last attempted interaction.
	Idle time.Duration
	// Inactive is the time since the consumer's last successful entry
	// delivery (Redis 7 semantics) — the dyn_auto_redis monitor metric,
	// because polling consumers reset Idle on every empty read.
	Inactive time.Duration
}

// XInfoConsumers lists consumers of a group with their idle times. The
// dyn_auto_redis monitoring strategy averages the Idle values.
func (c *Client) XInfoConsumers(key, group string) ([]ConsumerInfo, error) {
	v, err := c.Do("XINFO", "CONSUMERS", key, group)
	if err != nil {
		return nil, err
	}
	out := make([]ConsumerInfo, 0, len(v.Array))
	for _, row := range v.Array {
		info := ConsumerInfo{}
		for i := 0; i+1 < len(row.Array); i += 2 {
			switch row.Array[i].Str {
			case "name":
				info.Name = row.Array[i+1].Str
			case "pending":
				info.Pending = row.Array[i+1].Int
			case "idle":
				info.Idle = time.Duration(row.Array[i+1].Int) * time.Millisecond
			case "inactive":
				info.Inactive = time.Duration(row.Array[i+1].Int) * time.Millisecond
			}
		}
		out = append(out, info)
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
	args := []string{
		"XAUTOCLAIM", key, group, consumer,
		strconv.FormatInt(minIdle.Milliseconds(), 10), start,
		"COUNT", strconv.Itoa(count),
	}
	v, err := c.Do(args...)
	if err != nil {
		return "", nil, err
	}
	if len(v.Array) < 2 {
		return "0-0", nil, nil
	}
	return v.Array[0].Str, parseEntries(v.Array[1]), nil
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
		e := StreamEntry{ID: ev.Array[0].Str, Fields: map[string]string{}}
		fv := ev.Array[1].Array
		for i := 0; i+1 < len(fv); i += 2 {
			e.Fields[fv[i].Str] = fv[i+1].Str
		}
		entries = append(entries, e)
	}
	return entries
}
