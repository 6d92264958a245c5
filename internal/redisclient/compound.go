package redisclient

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/resp"
)

// Typed wrappers for the miniredis compound commands (see
// internal/miniredis/cmd_compound.go). Each is one atomic server-side
// transaction and — together with the applied-ledger gating — retry-safe, so
// the client's retry loop can re-send them across a lost reply without
// double-applying.

// FenceApplySet records ledgerField in the applied ledger of hashKey and sets
// field to value, atomically. applied=false means the ledger already held a
// record (a duplicate execution) and the mutation was skipped.
func (c *Client) FenceApplySet(hashKey, ledgerField, field, value string) (applied bool, err error) {
	v, err := c.Do("FENCEAPPLY", hashKey, ledgerField, "SET", field, value)
	if err != nil {
		return false, err
	}
	return fenceApplied(v)
}

// FenceApplyDel is FenceApplySet for a field deletion.
func (c *Client) FenceApplyDel(hashKey, ledgerField, field string) (applied bool, err error) {
	v, err := c.Do("FENCEAPPLY", hashKey, ledgerField, "DEL", field)
	if err != nil {
		return false, err
	}
	return fenceApplied(v)
}

// FenceApplyIncr atomically records ledgerField and adds delta to field,
// returning the field's value — post-increment when applied, current when the
// duplicate was dropped — so the caller always observes the effective count.
func (c *Client) FenceApplyIncr(hashKey, ledgerField, field string, delta int64) (applied bool, value int64, err error) {
	v, err := c.Do("FENCEAPPLY", hashKey, ledgerField, "INCR", field, strconv.FormatInt(delta, 10))
	if err != nil {
		return false, 0, err
	}
	if len(v.Array) != 2 {
		return false, 0, fmt.Errorf("redisclient: FENCEAPPLY: unexpected reply shape")
	}
	return v.Array[0].Int == 1, v.Array[1].Int, nil
}

// fenceApplied decodes the [applied, value] FENCEAPPLY reply.
func fenceApplied(v resp.Value) (bool, error) {
	if len(v.Array) < 1 {
		return false, fmt.Errorf("redisclient: FENCEAPPLY: unexpected reply shape")
	}
	return v.Array[0].Int == 1, nil
}

// FenceXAck acknowledges stream ids still owned by consumer and applies their
// pending-counter weights plus a direct decrement in one atomic server-side
// step. It returns how many entries were acked, the total counter decrement
// applied, and the pending counter's new value. ids and weights run in
// parallel (weights[i] is released only if ids[i] was acked).
func (c *Client) FenceXAck(stream, group, consumer, pendingKey string, direct int64, ids []string, weights []int64) (acked, dec, newPending int64, err error) {
	if len(ids) != len(weights) {
		return 0, 0, 0, fmt.Errorf("redisclient: FENCEXACK: %d ids vs %d weights", len(ids), len(weights))
	}
	args := make([]string, 0, 6+2*len(ids))
	args = append(args, "FENCEXACK", stream, group, consumer, pendingKey, strconv.FormatInt(direct, 10))
	for i, id := range ids {
		args = append(args, id, strconv.FormatInt(weights[i], 10))
	}
	v, err := c.Do(args...)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(v.Array) != 3 {
		return 0, 0, 0, fmt.Errorf("redisclient: FENCEXACK: unexpected reply shape")
	}
	return v.Array[0].Int, v.Array[1].Int, v.Array[2].Int, nil
}

// SinkAppend runs a whitelisted command batch (XADD auto-ID / INCRBY)
// gated on the applied ledger of ledgerKey/ledgerField, all in one atomic
// server-side transaction: the fenced exactly-once Final/sink flush.
// applied=false means the gate was already recorded and nothing ran.
func (c *Client) SinkAppend(ledgerKey, ledgerField string, cmds [][]string) (applied bool, err error) {
	args := make([]string, 0, 4+len(cmds)*4)
	args = append(args, "SINKAPPEND", ledgerKey, ledgerField, strconv.Itoa(len(cmds)))
	for _, argv := range cmds {
		args = append(args, strconv.Itoa(len(argv)))
		args = append(args, argv...)
	}
	v, err := c.Do(args...)
	if err != nil {
		return false, err
	}
	return v.Int == 1, nil
}

// LeaseCommit builds SINKAPPEND LEASE, the lease-gated transaction of owned
// partitions: one block per partition, each run against one hash only while
// its lease key holds its token, and then refreshing that lease to expire
// ttl from then (0 leaves its expiry alone). A block's subcommands are HGET
// field..., HSET field value..., HDEL field..., XACK stream
// group consumer pendingKey id weight... and DEL leaseKey. Its reply reads
// with LeaseReplies. Every subcommand is absolute, so the command is
// retry-safe.
type LeaseCommit struct {
	args []string
	// Indices of the open block's and open subcommand's count placeholders
	// (0: none open), and the counts so far.
	block, sub   int
	blocks, subs int
}

// NewLeaseCommit starts an empty transaction on hashKey, building it in
// buf's storage: a caller that sends one transaction at a time reuses it.
func NewLeaseCommit(buf []string, hashKey string, ttl time.Duration) LeaseCommit {
	px := "0"
	if ttl > 0 {
		px = millis(ttl)
	}
	return LeaseCommit{args: append(buf[:0], "SINKAPPEND", "LEASE", px, hashKey, "")}
}

// Block opens the next partition's block, gated on leaseKey holding token.
func (c *LeaseCommit) Block(leaseKey, token string) {
	c.sealBlock()
	c.args = append(c.args, leaseKey, token, "")
	c.block, c.subs = len(c.args)-1, 0
	c.blocks++
}

// Sub opens the next subcommand of the open block; Arg appends to it.
func (c *LeaseCommit) Sub(op string) {
	c.sealSub()
	c.args = append(c.args, "", op)
	c.sub = len(c.args) - 2
	c.subs++
}

// Arg appends arguments to the open subcommand.
func (c *LeaseCommit) Arg(args ...string) { c.args = append(c.args, args...) }

func (c *LeaseCommit) sealSub() {
	if c.sub > 0 {
		c.args[c.sub] = strconv.Itoa(len(c.args) - c.sub - 1)
		c.sub = 0
	}
}

func (c *LeaseCommit) sealBlock() {
	c.sealSub()
	if c.block > 0 {
		c.args[c.block] = strconv.Itoa(c.subs)
	}
}

// Argv is the finished command.
func (c *LeaseCommit) Argv() []string {
	c.sealBlock()
	c.args[4] = strconv.Itoa(c.blocks)
	return c.args
}

// LeaseReplies reads a SINKAPPEND LEASE reply: per block, whether it ran
// (false: its lease was lost and nothing of it ran) and the values its HGET
// subcommands read, in order.
func LeaseReplies(v resp.Value) (applied []bool, vals [][]resp.Value) {
	applied, vals = make([]bool, len(v.Array)), make([][]resp.Value, len(v.Array))
	for i, b := range v.Array {
		if len(b.Array) > 0 && b.Array[0].Int == 1 {
			applied[i], vals[i] = true, b.Array[1:]
		}
	}
	return applied, vals
}
