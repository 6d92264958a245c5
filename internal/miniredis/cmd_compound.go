package miniredis

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
)

// Compound commands: server-side transactions purpose-built for the engine's
// exactly-once machinery. Every command dispatches under the one server lock
// (see Server.dispatch), so each compound below is atomic with respect to all
// other commands — the fence ledger record and the mutation it guards either
// both happen or neither does, which is the property the client-side
// two-round-trip sequences could not give.
//
//	FENCEAPPLY hash ledgerField SET field value   -> [applied, nil]
//	FENCEAPPLY hash ledgerField DEL field         -> [applied, nil]
//	FENCEAPPLY hash ledgerField INCR field delta  -> [applied, value]
//	FENCEXACK stream group consumer pendingKey direct [id weight]...
//	                                              -> [acked, dec, newPending]
//	SINKAPPEND hash ledgerField ncmds (n argv...)... -> applied
//	SINKAPPEND LEASE pxMs hash nblocks (leaseKey token ncmds (n argv...)...)...
//	                                              -> [[applied, hget values...]...]
//
// All three validate their full argument block before mutating anything, so a
// malformed request leaves the store untouched.
func init() {
	register("FENCEAPPLY", 4, 5, cmdFenceApply)
	register("FENCEXACK", 5, -1, cmdFenceXAck)
	register("SINKAPPEND", 3, -1, cmdSinkAppend)
}

// ledgerRecord bumps the applied-ledger field in hash e and reports whether
// this call was the first record (the mutation must be applied) or a
// duplicate (it must be skipped).
func ledgerRecord(e *entry, ledgerField string) (first bool, errv *resp.Value) {
	var cnt int64
	if v, ok := e.hash[ledgerField]; ok {
		var err error
		if cnt, err = strconv.ParseInt(v, 10, 64); err != nil {
			v := resp.Err("ERR fence ledger value is not an integer")
			return false, &v
		}
	}
	if cnt == 0 {
		e.hash[ledgerField] = "1"
		return true, nil
	}
	e.hash[ledgerField] = strconv.FormatInt(cnt+1, 10)
	return false, nil
}

// cmdFenceApply is fence-check + ledger record + one hash mutation in a
// single atomic step. The reply is a two-element array: applied (1 when the
// mutation ran, 0 when the ledger already held a record and it was skipped)
// and, for INCR, the field's current value either way (nil for SET/DEL).
func cmdFenceApply(s *Server, args []string) resp.Value {
	hashKey, ledgerField, op := args[0], args[1], strings.ToUpper(args[2])
	var field string
	var delta int64
	switch op {
	case "SET":
		if len(args) != 5 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' SET")
		}
		field = args[3]
	case "DEL":
		if len(args) != 4 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' DEL")
		}
		field = args[3]
	case "INCR":
		if len(args) != 5 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' INCR")
		}
		field = args[3]
		var err error
		if delta, err = strconv.ParseInt(args[4], 10, 64); err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
	default:
		return resp.Errf("ERR FENCEAPPLY unsupported op '%s'", args[2])
	}

	e, err := s.db.hashFor(hashKey, time.Now())
	if err != nil {
		return errValue(err)
	}
	// INCR must be able to report the current value on both branches, so
	// parse it before recording the ledger.
	var cur int64
	if op == "INCR" {
		if v, ok := e.hash[field]; ok {
			if cur, err = strconv.ParseInt(v, 10, 64); err != nil {
				return resp.Err("ERR hash value is not an integer")
			}
		}
	}
	first, errv := ledgerRecord(e, ledgerField)
	if errv != nil {
		return *errv
	}
	if !first {
		// Duplicate execution: the ledger shows the mutation already applied.
		if op == "INCR" {
			return resp.Arr(resp.Int(0), resp.Int(cur))
		}
		return resp.Arr(resp.Int(0), resp.Nil)
	}
	switch op {
	case "SET":
		e.hash[field] = args[4]
		return resp.Arr(resp.Int(1), resp.Nil)
	case "DEL":
		delete(e.hash, field)
		return resp.Arr(resp.Int(1), resp.Nil)
	default: // INCR
		cur += delta
		e.hash[field] = strconv.FormatInt(cur, 10)
		return resp.Arr(resp.Int(1), resp.Int(cur))
	}
}

// cmdFenceXAck acknowledges stream entries *owned by the named consumer* and
// applies their pending-counter weights plus a direct decrement, all in one
// step. Entries pending under another consumer (reclaimed while this worker
// stalled) are left untouched and contribute nothing to the decrement, so a
// stale worker can never release live work it no longer owns. The reply is
// [acked, dec, newPending].
func cmdFenceXAck(s *Server, args []string) resp.Value {
	stream, groupName, consumer, pendingKey := args[0], args[1], args[2], args[3]
	direct, err := strconv.ParseInt(args[4], 10, 64)
	if err != nil {
		return resp.Err("ERR value is not an integer or out of range")
	}
	ids, weights, errv := parseAckPairs(args[5:], "fencexack")
	if errv != nil {
		return *errv
	}

	now := time.Now()
	g, errv := lookupGroup(s, stream, groupName, now)
	if errv != nil {
		// Like XACK, a missing key/group acks nothing — but the direct
		// decrement still applies (it covers work outside the stream).
		if !strings.HasPrefix(errv.Str, "NOGROUP") {
			return *errv
		}
	}
	acked, dec := ackOwned(g, consumer, ids, weights)
	dec += direct

	var newPending int64
	if dec != 0 {
		v := addToString(s, pendingKey, -dec)
		if v.Type == resp.Error {
			return v
		}
		newPending = v.Int
	} else {
		e, lerr := s.db.lookupKind(pendingKey, kindString, now)
		if lerr != nil {
			return errValue(lerr)
		}
		if e != nil {
			if newPending, err = strconv.ParseInt(e.str, 10, 64); err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
		}
	}
	return resp.Arr(resp.Int(acked), resp.Int(dec), resp.Int(newPending))
}

// parseAckPairs parses the trailing "id weight" pairs of an ownership-ruled
// ack (FENCEXACK, SINKAPPEND's XACK subcommand).
func parseAckPairs(rest []string, cmd string) ([]StreamID, []int64, *resp.Value) {
	if len(rest)%2 != 0 {
		v := resp.Errf("ERR wrong number of arguments for '%s' command", cmd)
		return nil, nil, &v
	}
	ids := make([]StreamID, 0, len(rest)/2)
	weights := make([]int64, 0, len(rest)/2)
	for i := 0; i < len(rest); i += 2 {
		id, perr := parseStreamID(rest[i], 0)
		if perr != nil {
			v := errValue(perr)
			return nil, nil, &v
		}
		w, werr := strconv.ParseInt(rest[i+1], 10, 64)
		if werr != nil || w < 0 {
			v := resp.Err("ERR value is not an integer or out of range")
			return nil, nil, &v
		}
		ids = append(ids, id)
		weights = append(weights, w)
	}
	return ids, weights, nil
}

// ackOwned removes from g's PEL the ids pending under consumer — FENCEXACK's
// ownership rule — and returns how many it removed and their summed weight.
// A nil group acks nothing.
func ackOwned(g *group, consumer string, ids []StreamID, weights []int64) (acked, dec int64) {
	if g == nil {
		return 0, 0
	}
	for i, id := range ids {
		pe, ok := g.pending[id]
		if !ok || pe.consumer != consumer {
			continue
		}
		delete(g.pending, id)
		if c, ok := g.consumers[pe.consumer]; ok {
			delete(c.pending, id)
		}
		acked++
		dec += weights[i]
	}
	return acked, dec
}

// sinkCmd is one validated SINKAPPEND subcommand.
type sinkCmd struct {
	op    string // XADD | INCRBY
	key   string
	args  []string // XADD fields
	delta int64    // INCRBY
}

// cmdSinkAppend is the fenced transactional append: record the applied-ledger
// field in the state hash and enqueue a whole output batch — pending-counter
// increment and stream entries — as one atomic step. A duplicate (ledger
// already recorded) applies nothing and replies 0. The whole block is
// validated, including key types and stream ID headroom, before any mutation,
// so a bad request cannot leave a half-applied batch.
func cmdSinkAppend(s *Server, args []string) resp.Value {
	if strings.EqualFold(args[0], "LEASE") {
		return cmdSinkAppendLease(s, args[1:])
	}
	ledgerKey, ledgerField := args[0], args[1]
	ncmds, err := strconv.Atoi(args[2])
	if err != nil || ncmds < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	now := time.Now()

	// Parse + validate every subcommand upfront.
	if _, lerr := s.db.lookupKind(ledgerKey, kindHash, now); lerr != nil {
		return errValue(lerr)
	}
	cmds := make([]sinkCmd, 0, ncmds)
	i := 3
	for c := 0; c < ncmds; c++ {
		if i >= len(args) {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		n, nerr := strconv.Atoi(args[i])
		if nerr != nil || n < 1 || i+1+n > len(args) {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		argv := args[i+1 : i+1+n]
		i += 1 + n
		op := strings.ToUpper(argv[0])
		switch op {
		case "XADD":
			// Only the auto-ID form the transport emits is supported.
			if n < 5 || argv[2] != "*" || (n-3)%2 != 0 {
				return resp.Err("ERR SINKAPPEND malformed XADD")
			}
			e, lerr := s.db.lookupKind(argv[1], kindStream, now)
			if lerr != nil {
				return errValue(lerr)
			}
			// IDs can only run out in the last representable millisecond;
			// there, refuse unless every command in the block could take one.
			if e != nil && e.stream.lastID.Ms == maxStreamID.Ms && maxStreamID.Seq-e.stream.lastID.Seq < uint64(ncmds) {
				return errValue(errStreamExhausted)
			}
			cmds = append(cmds, sinkCmd{op: op, key: argv[1], args: argv[3:]})
		case "INCRBY":
			if n != 3 {
				return resp.Err("ERR SINKAPPEND malformed INCRBY")
			}
			delta, derr := strconv.ParseInt(argv[2], 10, 64)
			if derr != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			e, lerr := s.db.lookupKind(argv[1], kindString, now)
			if lerr != nil {
				return errValue(lerr)
			}
			if e != nil {
				if _, perr := strconv.ParseInt(e.str, 10, 64); perr != nil {
					return resp.Err("ERR value is not an integer or out of range")
				}
			}
			cmds = append(cmds, sinkCmd{op: op, key: argv[1], delta: delta})
		default:
			return resp.Errf("ERR SINKAPPEND unsupported subcommand '%s'", argv[0])
		}
	}
	if i != len(args) {
		return resp.Err("ERR SINKAPPEND malformed command block")
	}

	// Gate on the applied ledger, then apply the whole batch.
	e, herr := s.db.hashFor(ledgerKey, now)
	if herr != nil {
		return errValue(herr)
	}
	first, errv := ledgerRecord(e, ledgerField)
	if errv != nil {
		return *errv
	}
	if !first {
		return resp.Int(0)
	}
	for _, c := range cmds {
		switch c.op {
		case "XADD":
			se, _ := s.db.streamFor(c.key, true, now)
			st := se.stream
			id, ierr := st.nextAutoID(now)
			if ierr != nil {
				return errValue(ierr) // unreachable after validation; defensive
			}
			st.add(id, append([]string(nil), c.args...))
			s.notifyKey(c.key)
		default: // INCRBY
			if v := addToString(s, c.key, c.delta); v.Type == resp.Error {
				return v // unreachable after validation; defensive
			}
		}
	}
	return resp.Int(1)
}

// leaseAck is a validated XACK subcommand of SINKAPPEND's lease form.
type leaseAck struct {
	group                *group // nil: the stream or group is gone, nothing to ack
	consumer, pendingKey string
	ids                  []StreamID
	weights              []int64
}

// leaseBlock is one validated block of SINKAPPEND's lease form: its
// subcommands are the ncmds length-prefixed argvs at args[at:].
type leaseBlock struct {
	leaseKey, token string
	args            []string
	at, ncmds       int
	acks            []leaseAck // its XACK subcommands, in order
	reads           int        // the fields its HGET subcommands read
}

// each calls fn with the block's subcommands in order.
func (lb *leaseBlock) each(fn func(argv []string)) {
	i := lb.at
	for c := 0; c < lb.ncmds; c++ {
		n, _ := strconv.Atoi(lb.args[i])
		fn(lb.args[i+1 : i+1+n])
		i += 1 + n
	}
}

// cmdSinkAppendLease is the lease-gated commit of owned partitions:
//
//	SINKAPPEND LEASE pxMs hash nblocks (leaseKey token ncmds (n argv...)...)...
//
// one block per partition, each with subcommands HGET field... (read fields
// of hash), HSET field value... and HDEL field... (keys' final values and
// ledger marks in hash), XACK stream group consumer pendingKey id weight...
// (FENCEXACK's ownership rule, no direct decrement) and DEL leaseKey
// (release the block's lease after the rest). A block runs only while its
// leaseKey holds its token, and then refreshes that lease's expiry to pxMs
// from now (0 keeps it as it is). The reply holds one array per block: [1,
// one value per field HGET read, in order, nil when absent] when it ran, [0]
// when its lease was lost and nothing of it ran. Every subcommand is
// absolute — a read changes nothing, a value set twice is the same value, an
// entry acked twice is acked once — so the command is safe to re-send.
func cmdSinkAppendLease(s *Server, args []string) resp.Value {
	if len(args) < 3 {
		return resp.Err("ERR wrong number of arguments for 'sinkappend' LEASE")
	}
	hashKey := args[1]
	px, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || px < 0 {
		return resp.Err("ERR invalid expire time in 'sinkappend' LEASE")
	}
	nblocks, err := strconv.Atoi(args[2])
	if err != nil || nblocks < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	now := time.Now()
	if _, lerr := s.db.lookupKind(hashKey, kindHash, now); lerr != nil {
		return errValue(lerr)
	}
	blocks := make([]leaseBlock, nblocks)
	i := 3
	for b := range blocks {
		if i+3 > len(args) {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		lb := &blocks[b]
		lb.leaseKey, lb.token, lb.args = args[i], args[i+1], args
		ncmds, nerr := strconv.Atoi(args[i+2])
		if nerr != nil || ncmds < 0 {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		i += 3
		lb.at, lb.ncmds = i, ncmds
		for c := 0; c < ncmds; c++ {
			if i >= len(args) {
				return resp.Err("ERR SINKAPPEND malformed command block")
			}
			n, nerr := strconv.Atoi(args[i])
			if nerr != nil || n < 1 || i+1+n > len(args) {
				return resp.Err("ERR SINKAPPEND malformed command block")
			}
			argv := args[i+1 : i+1+n]
			i += 1 + n
			if errv := validateLeaseCmd(s, lb, argv, now); errv != nil {
				return *errv
			}
		}
	}
	if i != len(args) {
		return resp.Err("ERR SINKAPPEND malformed command block")
	}
	out := make([]resp.Value, len(blocks))
	h, herr := s.db.hashFor(hashKey, now)
	if herr != nil {
		return errValue(herr)
	}
	for b := range blocks {
		out[b] = applyLeaseBlock(s, &blocks[b], h, time.Duration(px)*time.Millisecond, now)
	}
	if len(h.hash) == 0 {
		delete(s.db.keys, hashKey)
	}
	return resp.Arr(out...)
}

// validateLeaseCmd checks one subcommand of lease block lb, parsing an
// XACK's arguments into lb.acks.
func validateLeaseCmd(s *Server, lb *leaseBlock, argv []string, now time.Time) *resp.Value {
	n := len(argv)
	switch op := strings.ToUpper(argv[0]); {
	case op == "HGET" && n >= 2:
		lb.reads += n - 1
	case op == "HDEL" && n >= 2, op == "HSET" && n >= 3 && n%2 == 1:
	case op == "DEL" && n == 2 && argv[1] == lb.leaseKey:
	case op == "XACK" && n >= 7:
		ids, weights, errv := parseAckPairs(argv[5:], "sinkappend")
		if errv != nil {
			return errv
		}
		g, errv := lookupGroup(s, argv[1], argv[2], now)
		if errv != nil && !strings.HasPrefix(errv.Str, "NOGROUP") {
			return errv
		}
		if e, lerr := s.db.lookupKind(argv[4], kindString, now); lerr != nil {
			v := errValue(lerr)
			return &v
		} else if e != nil {
			if _, perr := strconv.ParseInt(e.str, 10, 64); perr != nil {
				v := resp.Err("ERR value is not an integer or out of range")
				return &v
			}
		}
		lb.acks = append(lb.acks, leaseAck{group: g, consumer: argv[3], pendingKey: argv[4], ids: ids, weights: weights})
	default:
		v := resp.Errf("ERR SINKAPPEND LEASE malformed subcommand '%s'", argv[0])
		return &v
	}
	return nil
}

// applyLeaseBlock runs one validated block against hash h while its lease
// holds, and returns the block's reply.
func applyLeaseBlock(s *Server, lb *leaseBlock, h *entry, ttl time.Duration, now time.Time) resp.Value {
	lease, _ := s.db.lookupKind(lb.leaseKey, kindString, now)
	if lease == nil || lease.str != lb.token {
		return resp.Arr(resp.Int(0))
	}
	if ttl > 0 {
		lease.expireAt = now.Add(ttl)
	}
	out := make([]resp.Value, 1, 1+lb.reads)
	out[0] = resp.Int(1)
	acks := lb.acks
	lb.each(func(argv []string) {
		switch strings.ToUpper(argv[0]) {
		case "HGET":
			for _, f := range argv[1:] {
				if v, ok := h.hash[f]; ok {
					out = append(out, resp.Str(v))
				} else {
					out = append(out, resp.Nil)
				}
			}
		case "HSET":
			for i := 1; i < len(argv); i += 2 {
				h.hash[argv[i]] = argv[i+1]
			}
		case "HDEL":
			for _, f := range argv[1:] {
				delete(h.hash, f)
			}
		case "XACK":
			a := acks[0]
			acks = acks[1:]
			if _, dec := ackOwned(a.group, a.consumer, a.ids, a.weights); dec != 0 {
				addToString(s, a.pendingKey, -dec)
			}
		case "DEL":
			delete(s.db.keys, lb.leaseKey)
		}
	})
	return resp.Arr(out...)
}
