package miniredis

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
)

func init() {
	register("SET", 2, -1, cmdSet)
	register("GET", 1, 1, cmdGet)
	register("INCRBY", 2, 2, cmdIncrBy)
}

// setString stores a string value, preserving nothing from prior entries.
func (d *db) setString(key, val string) {
	d.keys[key] = &entry{kind: kindString, str: val}
}

// cmdSet serves SET key value [NX] [PX ms]: plain sets for checkpoints and
// counters, NX [PX] for an owned partition's lease.
func cmdSet(s *Server, args []string) resp.Value {
	key, val := args[0], args[1]
	var nx bool
	var ttl time.Duration
	for i := 2; i < len(args); i++ {
		switch strings.ToUpper(args[i]) {
		case "NX":
			nx = true
		case "PX":
			if i+1 >= len(args) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.ParseInt(args[i+1], 10, 64)
			if err != nil || n <= 0 {
				return resp.Err("ERR invalid expire time in 'set' command")
			}
			ttl = time.Duration(n) * time.Millisecond
			i++
		default:
			return resp.Err("ERR syntax error")
		}
	}
	now := time.Now()
	if nx && s.db.lookup(key, now) != nil {
		return resp.Nil
	}
	s.db.setString(key, val)
	if ttl > 0 {
		s.db.keys[key].expireAt = now.Add(ttl)
	}
	return resp.OK
}

func cmdGet(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindString, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Nil
	}
	return resp.Str(e.str)
}

func addToString(s *Server, key string, delta int64) resp.Value {
	e, err := s.db.lookupKind(key, kindString, time.Now())
	if err != nil {
		return errValue(err)
	}
	var cur int64
	if e != nil {
		cur, err = strconv.ParseInt(e.str, 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
	}
	cur += delta
	s.db.setString(key, strconv.FormatInt(cur, 10))
	return resp.Int(cur)
}

func cmdIncrBy(s *Server, args []string) resp.Value {
	n, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return resp.Err("ERR value is not an integer or out of range")
	}
	return addToString(s, args[0], n)
}
