package miniredis

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/redisclient"
)

// keptCommands is the whole command table, grouped by who sends the command.
// A command enters this list when something starts issuing it and leaves the
// table when the last issuer goes.
var keptCommands = [][]string{
	// Issued by the engine: runtime.RedisTransport, state.RedisBackend and
	// its fence, the coalescer, the dyn_auto_redis idle monitor.
	{"PING", "FLUSHALL", "GET", "SET", "INCRBY", "DEL",
		"HSET", "HGET", "HGETALL", "HDEL", "HKEYS", "HLEN", "HINCRBY",
		"XADD", "XLEN", "XGROUP", "XREADGROUP", "XACK", "XPENDING", "XINFO", "XCLAIM", "XAUTOCLAIM",
		"FENCEAPPLY", "FENCEXACK", "SINKAPPEND"},
	// Issued by benchmark/: keys left after a run, leftover queue streams.
	{"DBSIZE", "KEYS"},
	// Inspection a debugging session needs.
	{"EXISTS", "TYPE", "TTL", "INFO", "XRANGE"},
	// The seat bounded streams build on (ROADMAP item 6), with XADD MAXLEN.
	{"XTRIM"},
}

// retrySafeForm gives, for each command the client may re-send after a lost
// reply, an argv in the shape that is safe (Retryable is argv-aware for SET,
// XCLAIM and FENCEXACK).
var retrySafeForm = map[string][]string{
	"SET":       {"SET", "k", "v"},
	"XCLAIM":    {"XCLAIM", "q", "g", "w", "0", "1-1", "JUSTID"},
	"FENCEXACK": {"FENCEXACK", "q", "g", "w", "pending", "0", "1-1", "1"},
}

// singleShot lists the commands that are never re-sent: their effect is
// relative (a second execution adds, appends, trims or delivers again).
var singleShot = []string{"INCRBY", "HINCRBY", "XADD", "XTRIM", "XREADGROUP", "XAUTOCLAIM"}

// TestCommandSurface pins the server's command table to the kept list and
// checks that every command in it is classified on purpose: retry-safe in
// redisclient.Retryable or single-shot here, never both, never neither.
func TestCommandSurface(t *testing.T) {
	var want []string
	for _, group := range keptCommands {
		want = append(want, group...)
	}
	sort.Strings(want)
	got := make([]string, 0, len(commandTable))
	for name := range commandTable {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("command table drifted from the kept list:\n got %v\nwant %v", got, want)
	}

	once := map[string]bool{}
	for _, name := range singleShot {
		once[name] = true
		if _, ok := commandTable[name]; !ok {
			t.Errorf("single-shot list names %s, which the server does not register", name)
		}
	}
	for _, name := range want {
		argv, ok := retrySafeForm[name]
		if !ok {
			argv = []string{name}
		}
		switch retry := redisclient.Retryable(argv); {
		case retry && once[name]:
			t.Errorf("%s is both retry-safe in redisclient.Retryable and single-shot here", name)
		case !retry && !once[name]:
			t.Errorf("%s is unclassified: add it to redisclient.Retryable or to singleShot", name)
		}
	}
}
