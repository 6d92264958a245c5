package miniredis

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
)

func init() {
	register("XADD", 4, -1, cmdXAdd)
	register("XLEN", 1, 1, cmdXLen)
	register("XRANGE", 3, 5, cmdXRange)
	register("XGROUP", 4, 5, cmdXGroup)
	register("XREADGROUP", 6, -1, cmdXReadGroup)
	register("XACK", 3, -1, cmdXAck)
	register("XPENDING", 5, 6, cmdXPending)
	register("XCLAIM", 6, -1, cmdXClaim)
	register("XAUTOCLAIM", 5, 7, cmdXAutoClaim)
	register("XTRIM", 3, 4, cmdXTrim)
}

var errNoGroup = func(key, group string) resp.Value {
	return resp.Errf("NOGROUP No such consumer group '%s' for key name '%s'", group, key)
}

// entryValue renders one stream entry as [id, [f1, v1, ...]].
func entryValue(e streamEntry) resp.Value {
	return resp.Arr(resp.Str(e.id.String()), resp.StrArray(e.fields...))
}

// entriesValue renders a list of entries.
func entriesValue(entries []streamEntry) resp.Value {
	out := make([]resp.Value, len(entries))
	for i, e := range entries {
		out[i] = entryValue(e)
	}
	return resp.Arr(out...)
}

func (d *db) streamFor(key string, create bool, now time.Time) (*entry, error) {
	e, err := d.lookupKind(key, kindStream, now)
	if err != nil || e != nil {
		return e, err
	}
	if !create {
		return nil, nil
	}
	e = &entry{kind: kindStream, stream: newStream()}
	d.keys[key] = e
	return e, nil
}

// errAddIDTooSmall is Redis's reply to an XADD ID at or below the top item.
var errAddIDTooSmall = fmt.Errorf("ERR The ID specified in XADD is equal or smaller than the target stream top item")

// addID resolves XADD's ID argument against the stream's top item: "*" takes
// the next automatic ID, "ms-*" the next sequence within ms, and an explicit
// "ms" or "ms-seq" must lie strictly above the top item. Whatever it returns
// is greater than lastID, which is what keeps entries sorted for searchIdx.
func (s *stream) addID(arg string, now time.Time) (StreamID, error) {
	if arg == "*" {
		return s.nextAutoID(now)
	}
	if msStr, ok := strings.CutSuffix(arg, "-*"); ok {
		ms, err := strconv.ParseUint(msStr, 10, 64)
		if err != nil {
			return StreamID{}, errInvalidStreamID
		}
		switch {
		case ms < s.lastID.Ms:
			return StreamID{}, errAddIDTooSmall
		case ms > s.lastID.Ms:
			return StreamID{Ms: ms, Seq: 0}, nil
		case s.lastID.Seq == ^uint64(0):
			return StreamID{}, errStreamExhausted
		}
		return StreamID{Ms: ms, Seq: s.lastID.Seq + 1}, nil
	}
	id, err := parseStreamID(arg, 0)
	if err != nil {
		return StreamID{}, err
	}
	if id.IsZero() {
		return StreamID{}, fmt.Errorf("ERR The ID specified in XADD must be greater than 0-0")
	}
	if !s.lastID.Less(id) {
		return StreamID{}, errAddIDTooSmall
	}
	return id, nil
}

// cmdXAdd serves XADD key [MAXLEN [~|=] n] id field value [field value ...].
func cmdXAdd(s *Server, args []string) resp.Value {
	key := args[0]
	i := 1
	maxLen := int64(-1)
	if strings.EqualFold(args[i], "MAXLEN") {
		i++
		if i < len(args) && (args[i] == "~" || args[i] == "=") {
			i++
		}
		if i >= len(args) {
			return resp.Err("ERR syntax error")
		}
		n, err := strconv.ParseInt(args[i], 10, 64)
		if err != nil || n < 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
		maxLen = n
		i++
	}
	if i >= len(args) {
		return resp.Err("ERR wrong number of arguments for 'xadd' command")
	}
	idArgStr := args[i]
	i++
	fields := args[i:]
	if len(fields) == 0 || len(fields)%2 != 0 {
		return resp.Err("ERR wrong number of arguments for 'xadd' command")
	}

	now := time.Now()
	e, err := s.db.streamFor(key, true, now)
	if err != nil {
		return errValue(err)
	}
	st := e.stream

	id, err := st.addID(idArgStr, now)
	if err != nil {
		return errValue(err)
	}
	st.add(id, append([]string(nil), fields...))
	if maxLen >= 0 {
		st.trimMaxLen(maxLen)
	}
	s.notifyKey(key)
	return resp.Str(id.String())
}

func cmdXLen(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindStream, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Int(0)
	}
	return resp.Int(int64(len(e.stream.entries)))
}

func cmdXRange(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindStream, time.Now())
	if err != nil {
		return errValue(err)
	}
	count := 0
	if len(args) >= 5 {
		if !strings.EqualFold(args[3], "COUNT") {
			return resp.Err("ERR syntax error")
		}
		count, err = strconv.Atoi(args[4])
		if err != nil || count < 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
	} else if len(args) == 4 {
		return resp.Err("ERR syntax error")
	}
	lo, hi, err := parseRangeBounds(args[1], args[2])
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Arr()
	}
	return entriesValue(e.stream.rangeEntries(lo, hi, count))
}

// parseRangeBounds parses an inclusive [lo, hi] ID interval as XRANGE and
// XPENDING spell it: "-" and "+" are the smallest and largest ID, and a bare
// "ms" covers the whole millisecond.
func parseRangeBounds(loStr, hiStr string) (StreamID, StreamID, error) {
	lo, err := parseRangeID(loStr, 0)
	if err != nil {
		return StreamID{}, StreamID{}, err
	}
	hi, err := parseRangeID(hiStr, ^uint64(0))
	if err != nil {
		return StreamID{}, StreamID{}, err
	}
	return lo, hi, nil
}

// parseRangeID is parseStreamID plus the two range sentinels.
func parseRangeID(s string, seqDefault uint64) (StreamID, error) {
	switch s {
	case "-":
		return StreamID{}, nil
	case "+":
		return maxStreamID, nil
	}
	return parseStreamID(s, seqDefault)
}

// cmdXGroup serves XGROUP CREATE key group id|$ [MKSTREAM], the one
// subcommand the transport issues.
func cmdXGroup(s *Server, args []string) resp.Value {
	if !strings.EqualFold(args[0], "CREATE") {
		return resp.Errf("ERR Unknown XGROUP subcommand or wrong number of arguments for '%s'", args[0])
	}
	key, groupName, idStr := args[1], args[2], args[3]
	mkstream := len(args) >= 5 && strings.EqualFold(args[4], "MKSTREAM")
	e, err := s.db.streamFor(key, mkstream, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Err("ERR The XGROUP subcommand requires the key to exist. Note that for CREATE you may want to use the MKSTREAM option to create an empty stream automatically.")
	}
	st := e.stream
	if _, dup := st.groups[groupName]; dup {
		return resp.Err("BUSYGROUP Consumer Group name already exists")
	}
	var last StreamID
	if idStr == "$" {
		last = st.lastID
	} else {
		var perr error
		last, perr = parseStreamID(idStr, 0)
		if perr != nil {
			return errValue(perr)
		}
	}
	st.groups[groupName] = newGroup(last)
	return resp.OK
}

// lookupGroup finds a stream consumer group or returns the appropriate error
// reply.
func lookupGroup(s *Server, key, groupName string, now time.Time) (*group, *resp.Value) {
	e, err := s.db.lookupKind(key, kindStream, now)
	if err != nil {
		v := errValue(err)
		return nil, &v
	}
	if e == nil {
		v := errNoGroup(key, groupName)
		return nil, &v
	}
	g, ok := e.stream.groups[groupName]
	if !ok {
		v := errNoGroup(key, groupName)
		return nil, &v
	}
	return g, nil
}

// cmdXReadGroup serves XREADGROUP GROUP group consumer [COUNT n] [BLOCK ms]
// [LEASES m (leaseKey token)...] STREAMS key... >..., the form the transport
// sends: new entries of one or more streams, each entering the consumer's
// PEL. COUNT bounds each stream's share; a blocked read wakes on an append
// to any of the keys. LEASES guards the last m streams, in order: such a
// stream is read, and waited on, only while its leaseKey holds its token,
// checked each time the read looks for entries, so a consumer whose lease
// was taken never moves the stream's new entries into its PEL.
func cmdXReadGroup(s *Server, args []string) resp.Value {
	if !strings.EqualFold(args[0], "GROUP") {
		return resp.Err("ERR syntax error")
	}
	groupName, consumerName := args[1], args[2]
	count := 0
	blockMs := int64(-1)
	var leases []string // (leaseKey, token) pairs of the last len(leases)/2 streams
	i := 3
	for ; i < len(args) && !strings.EqualFold(args[i], "STREAMS"); i += 2 {
		if i+1 >= len(args) {
			return resp.Err("ERR syntax error")
		}
		switch strings.ToUpper(args[i]) {
		case "LEASES":
			m, err := strconv.Atoi(args[i+1])
			if err != nil || m < 1 || i+2+2*m > len(args) {
				return resp.Err("ERR syntax error")
			}
			leases = args[i+2 : i+2+2*m]
			i += 2 * m
		case "COUNT":
			n, err := strconv.Atoi(args[i+1])
			if err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			count = n
		case "BLOCK":
			n, err := strconv.ParseInt(args[i+1], 10, 64)
			if err != nil || n < 0 {
				return resp.Err("ERR timeout is not an integer or out of range")
			}
			blockMs = n
		default:
			return resp.Err("ERR syntax error")
		}
	}
	rest := args[min(i+1, len(args)):]
	if i >= len(args) || len(rest) == 0 || len(rest)%2 != 0 {
		return resp.Err("ERR syntax error")
	}
	keys, ids := rest[:len(rest)/2], rest[len(rest)/2:]
	for _, id := range ids {
		if id != ">" {
			return resp.Err("ERR syntax error")
		}
	}
	leased := len(keys) - len(leases)/2 // the first guarded stream
	if leased < 0 {
		return resp.Err("ERR syntax error")
	}

	var deadline time.Time
	if blockMs > 0 {
		deadline = time.Now().Add(time.Duration(blockMs) * time.Millisecond)
	}
	for {
		now := time.Now()
		groups := make([]*group, len(keys))
		for k, key := range keys {
			g, errv := lookupGroup(s, key, groupName, now)
			if errv != nil {
				return *errv
			}
			groups[k] = g
		}
		var out []resp.Value
		live := make([]string, 0, len(keys))
		for k, key := range keys {
			if k >= leased {
				j := 2 * (k - leased)
				if l, _ := s.db.lookupKind(leases[j], kindString, now); l == nil || l.str != leases[j+1] {
					continue
				}
			}
			live = append(live, key)
			g := groups[k]
			e, _ := s.db.lookupKind(key, kindStream, now)
			entries := e.stream.rangeEntries(g.lastDelivered.Next(), maxStreamID, count)
			if len(entries) == 0 {
				continue
			}
			c := g.consumerNamed(consumerName)
			for _, se := range entries {
				g.lastDelivered = se.id
				g.pending[se.id] = &pendingEntry{consumer: consumerName, deliveryTime: now, deliveryCount: 1}
				c.pending[se.id] = struct{}{}
			}
			out = append(out, resp.Arr(resp.Str(key), entriesValue(entries)))
		}
		if len(out) > 0 {
			return resp.Arr(out...)
		}
		if blockMs < 0 || len(live) == 0 || !s.awaitKeys(live, deadline) {
			return resp.NilArray()
		}
	}
}

func cmdXAck(s *Server, args []string) resp.Value {
	now := time.Now()
	g, errv := lookupGroup(s, args[0], args[1], now)
	if errv != nil {
		// Redis returns 0 for missing key/group on XACK.
		if strings.HasPrefix(errv.Str, "NOGROUP") {
			return resp.Int(0)
		}
		return *errv
	}
	var n int64
	for _, idStr := range args[2:] {
		id, err := parseStreamID(idStr, 0)
		if err != nil {
			return errValue(err)
		}
		pe, ok := g.pending[id]
		if !ok {
			continue
		}
		delete(g.pending, id)
		if c, ok := g.consumers[pe.consumer]; ok {
			delete(c.pending, id)
		}
		n++
	}
	return resp.Int(n)
}

// cmdXPending serves the extended form XPENDING key group start end count
// [consumer]: one [id, consumer, idle ms, delivery count] row per pending
// entry in the range, at most count of them.
func cmdXPending(s *Server, args []string) resp.Value {
	now := time.Now()
	g, errv := lookupGroup(s, args[0], args[1], now)
	if errv != nil {
		return *errv
	}
	lo, hi, err := parseRangeBounds(args[2], args[3])
	if err != nil {
		return errValue(err)
	}
	count, cerr := strconv.Atoi(args[4])
	if cerr != nil || count < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	onlyConsumer := ""
	if len(args) == 6 {
		onlyConsumer = args[5]
	}
	var rows []resp.Value
	for _, id := range g.sortedPending(onlyConsumer) {
		if len(rows) >= count {
			break
		}
		if id.Less(lo) || hi.Less(id) {
			continue
		}
		pe := g.pending[id]
		rows = append(rows, resp.Arr(
			resp.Str(id.String()),
			resp.Str(pe.consumer),
			resp.Int(int64(now.Sub(pe.deliveryTime)/time.Millisecond)),
			resp.Int(pe.deliveryCount),
		))
	}
	return resp.Arr(rows...)
}

// cmdXClaim serves XCLAIM key group consumer min-idle id... JUSTID, the lease
// heartbeat's form: pending entries idle at least min-idle move to consumer
// with their idle clock reset and their delivery count unchanged, and the
// reply lists the claimed IDs.
func cmdXClaim(s *Server, args []string) resp.Value {
	now := time.Now()
	key, groupName, consumerName := args[0], args[1], args[2]
	minIdleMs, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return resp.Err("ERR Invalid min-idle-time argument for XCLAIM")
	}
	last := len(args) - 1
	if !strings.EqualFold(args[last], "JUSTID") {
		return resp.Err("ERR syntax error")
	}
	ids := make([]StreamID, 0, last-4)
	for _, a := range args[4:last] {
		id, perr := parseStreamID(a, 0)
		if perr != nil {
			return errValue(perr)
		}
		ids = append(ids, id)
	}
	g, errv := lookupGroup(s, key, groupName, now)
	if errv != nil {
		return *errv
	}
	dst := g.consumerNamed(consumerName)
	minIdle := time.Duration(minIdleMs) * time.Millisecond
	var out []resp.Value
	for _, id := range ids {
		pe, ok := g.pending[id]
		if !ok || now.Sub(pe.deliveryTime) < minIdle {
			continue
		}
		if prev, ok := g.consumers[pe.consumer]; ok {
			delete(prev.pending, id)
		}
		pe.consumer = consumerName
		pe.deliveryTime = now
		dst.pending[id] = struct{}{}
		out = append(out, resp.Str(id.String()))
	}
	return resp.Arr(out...)
}

// cmdXAutoClaim serves XAUTOCLAIM key group consumer min-idle start
// [COUNT n]: the recovery sweep's form, replying [cursor, entries, deleted
// IDs] with each claimed entry's delivery count bumped.
func cmdXAutoClaim(s *Server, args []string) resp.Value {
	now := time.Now()
	key, groupName, consumerName := args[0], args[1], args[2]
	minIdleMs, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return resp.Err("ERR Invalid min-idle-time argument for XAUTOCLAIM")
	}
	start, err := parseStreamID(args[4], 0)
	if err != nil {
		return errValue(err)
	}
	count := 100
	switch {
	case len(args) == 7 && strings.EqualFold(args[5], "COUNT"):
		count, err = strconv.Atoi(args[6])
		if err != nil || count <= 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
	case len(args) != 5:
		return resp.Err("ERR syntax error")
	}
	g, errv := lookupGroup(s, key, groupName, now)
	if errv != nil {
		return *errv
	}
	e, _ := s.db.lookupKind(key, kindStream, now)
	dst := g.consumerNamed(consumerName)
	minIdle := time.Duration(minIdleMs) * time.Millisecond

	var claimed []resp.Value
	var deletedIDs []resp.Value
	cursor := "0-0"
	ids := g.sortedPending("")
	for _, id := range ids {
		if id.Less(start) {
			continue
		}
		if len(claimed) >= count {
			cursor = id.String()
			break
		}
		pe := g.pending[id]
		if now.Sub(pe.deliveryTime) < minIdle {
			continue
		}
		se := e.stream.entryAt(id)
		if se == nil {
			// Entry deleted from the stream: drop from PEL, report in third
			// reply element (Redis 7 behaviour).
			if prev, ok := g.consumers[pe.consumer]; ok {
				delete(prev.pending, id)
			}
			delete(g.pending, id)
			deletedIDs = append(deletedIDs, resp.Str(id.String()))
			continue
		}
		if prev, ok := g.consumers[pe.consumer]; ok {
			delete(prev.pending, id)
		}
		pe.consumer = consumerName
		pe.deliveryTime = now
		pe.deliveryCount++
		dst.pending[id] = struct{}{}
		claimed = append(claimed, entryValue(*se))
	}
	return resp.Arr(resp.Str(cursor), resp.Arr(claimed...), resp.Arr(deletedIDs...))
}

func cmdXTrim(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindStream, time.Now())
	if err != nil {
		return errValue(err)
	}
	i := 1
	if !strings.EqualFold(args[i], "MAXLEN") {
		return resp.Err("ERR syntax error")
	}
	i++
	if i < len(args) && (args[i] == "~" || args[i] == "=") {
		i++
	}
	if i >= len(args) {
		return resp.Err("ERR syntax error")
	}
	n, cerr := strconv.ParseInt(args[i], 10, 64)
	if cerr != nil || n < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	if e == nil {
		return resp.Int(0)
	}
	return resp.Int(e.stream.trimMaxLen(n))
}
