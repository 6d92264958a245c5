package miniredis

import (
	"fmt"
	"path"
	"sort"
	"time"

	"repro/internal/resp"
)

func init() {
	register("PING", 0, 1, cmdPing)
	register("FLUSHALL", 0, 1, cmdFlushAll)
	register("DBSIZE", 0, 0, cmdDBSize)
	register("DEL", 1, -1, cmdDel)
	register("EXISTS", 1, -1, cmdExists)
	register("TYPE", 1, 1, cmdType)
	register("KEYS", 1, 1, cmdKeys)
	register("TTL", 1, 1, cmdTTL)
	register("INFO", 0, -1, cmdInfo)
}

func cmdPing(s *Server, args []string) resp.Value {
	if len(args) == 1 {
		return resp.Str(args[0])
	}
	return resp.Pong
}

func cmdFlushAll(s *Server, args []string) resp.Value {
	s.db = newDB()
	for key := range s.watch {
		s.notifyKey(key)
	}
	return resp.OK
}

func cmdDBSize(s *Server, args []string) resp.Value {
	now := time.Now()
	var n int64
	for key := range s.db.keys {
		if s.db.lookup(key, now) != nil {
			n++
		}
	}
	return resp.Int(n)
}

func cmdDel(s *Server, args []string) resp.Value {
	now := time.Now()
	var n int64
	for _, key := range args {
		if s.db.lookup(key, now) != nil {
			delete(s.db.keys, key)
			n++
		}
	}
	return resp.Int(n)
}

func cmdExists(s *Server, args []string) resp.Value {
	now := time.Now()
	var n int64
	for _, key := range args {
		if s.db.lookup(key, now) != nil {
			n++
		}
	}
	return resp.Int(n)
}

func cmdType(s *Server, args []string) resp.Value {
	e := s.db.lookup(args[0], time.Now())
	if e == nil {
		return resp.Simple("none")
	}
	return resp.Simple(e.kind.String())
}

func cmdKeys(s *Server, args []string) resp.Value {
	now := time.Now()
	var keys []string
	for key := range s.db.keys {
		if s.db.lookup(key, now) == nil {
			continue
		}
		ok, err := path.Match(args[0], key)
		if err == nil && ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return resp.StrArray(keys...)
}

// cmdTTL reports a key's remaining life in seconds: -2 when the key is
// missing, -1 when it never expires (only SET EX/PX gives a key a TTL).
func cmdTTL(s *Server, args []string) resp.Value {
	e := s.db.lookup(args[0], time.Now())
	if e == nil {
		return resp.Int(-2)
	}
	if e.expireAt.IsZero() {
		return resp.Int(-1)
	}
	return resp.Int(int64(time.Until(e.expireAt) / time.Second))
}

func cmdInfo(s *Server, args []string) resp.Value {
	body := fmt.Sprintf("# Server\r\nredis_version:7.0-miniredis\r\n"+
		"# Stats\r\ntotal_commands_processed:%d\r\n# Keyspace\r\ndb0:keys=%d\r\n",
		s.commands.Load(), len(s.db.keys))
	return resp.Str(body)
}
