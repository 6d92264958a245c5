package miniredis

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/resp"
)

func init() {
	register("HSET", 3, -1, cmdHSet)
	register("HGET", 2, 2, cmdHGet)
	register("HDEL", 2, -1, cmdHDel)
	register("HGETALL", 1, 1, cmdHGetAll)
	register("HLEN", 1, 1, cmdHLen)
	register("HINCRBY", 3, 3, cmdHIncrBy)
}

func (d *db) hashFor(key string, now time.Time) (*entry, error) {
	e, err := d.lookupKind(key, kindHash, now)
	if err != nil || e != nil {
		return e, err
	}
	e = &entry{kind: kindHash, hash: make(map[string]string)}
	d.keys[key] = e
	return e, nil
}

func cmdHSet(s *Server, args []string) resp.Value {
	if (len(args)-1)%2 != 0 {
		return resp.Err("ERR wrong number of arguments for 'hset' command")
	}
	e, err := s.db.hashFor(args[0], time.Now())
	if err != nil {
		return errValue(err)
	}
	var added int64
	for i := 1; i < len(args); i += 2 {
		if _, ok := e.hash[args[i]]; !ok {
			added++
		}
		e.hash[args[i]] = args[i+1]
	}
	return resp.Int(added)
}

func cmdHGet(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindHash, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Nil
	}
	v, ok := e.hash[args[1]]
	if !ok {
		return resp.Nil
	}
	return resp.Str(v)
}

func cmdHDel(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindHash, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Int(0)
	}
	var n int64
	for _, f := range args[1:] {
		if _, ok := e.hash[f]; ok {
			delete(e.hash, f)
			n++
		}
	}
	if len(e.hash) == 0 {
		delete(s.db.keys, args[0])
	}
	return resp.Int(n)
}

func sortedHashFields(h map[string]string) []string {
	fields := make([]string, 0, len(h))
	for f := range h {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}

func cmdHGetAll(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindHash, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Arr()
	}
	out := make([]resp.Value, 0, 2*len(e.hash))
	for _, f := range sortedHashFields(e.hash) {
		out = append(out, resp.Str(f), resp.Str(e.hash[f]))
	}
	return resp.Arr(out...)
}

func cmdHLen(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindHash, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Int(0)
	}
	return resp.Int(int64(len(e.hash)))
}

func cmdHIncrBy(s *Server, args []string) resp.Value {
	delta, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil {
		return resp.Err("ERR value is not an integer or out of range")
	}
	e, lerr := s.db.hashFor(args[0], time.Now())
	if lerr != nil {
		return errValue(lerr)
	}
	var cur int64
	if v, ok := e.hash[args[1]]; ok {
		cur, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			return resp.Err("ERR hash value is not an integer")
		}
	}
	cur += delta
	e.hash[args[1]] = strconv.FormatInt(cur, 10)
	return resp.Int(cur)
}
