package miniredis

import (
	"errors"
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
	// its fence, the coalescer.
	{"PING", "FLUSHALL", "GET", "SET", "INCRBY", "DEL",
		"HSET", "HGET", "HGETALL", "HDEL", "HINCRBY",
		"XADD", "XLEN", "XGROUP", "XREADGROUP", "XPENDING", "XCLAIM", "XAUTOCLAIM",
		"FENCEAPPLY", "FENCEXACK", "SINKAPPEND"},
	// Issued by benchmark/: keys left after a run, leftover queue streams,
	// the fence-ledger size, and the plain-ack probe FENCEXACK is measured
	// against.
	{"DBSIZE", "KEYS", "HLEN", "XACK"},
	// Inspection a debugging session needs.
	{"EXISTS", "TYPE", "TTL", "INFO", "XRANGE"},
	// The seat bounded streams build on (ROADMAP item 6), with XADD MAXLEN.
	{"XTRIM"},
}

// retrySafeForm gives, for each command the client may re-send after a lost
// reply, an argv in the shape that is safe (Retryable is argv-aware for SET
// and FENCEXACK).
var retrySafeForm = map[string][]string{
	"SET":       {"SET", "k", "v"},
	"FENCEXACK": {"FENCEXACK", "q", "g", "w", "pending", "0", "1-1", "1"},
}

// sentForms is every argv form a caller sends, replayed in order against one
// fresh server: each must succeed. The first rows only lay out state
// (streams q and r with group g, entries 1-1 and 1-2 of q delivered to w0)
// for the rows after them.
var sentForms = [][]string{
	{"XGROUP", "CREATE", "q", "g", "0", "MKSTREAM"},
	{"XGROUP", "CREATE", "r", "g", "0", "MKSTREAM"},
	{"XADD", "q", "1-1", "task", "a"},
	{"XADD", "q", "1-2", "task", "b"},
	{"XREADGROUP", "GROUP", "g", "w0", "COUNT", "2", "STREAMS", "q", ">"},
	// The engine: transport, state backend, fence.
	{"PING"},
	{"SET", "k", "1"},
	{"SET", "lock", "v", "NX"},
	{"SET", "lease", "v", "NX", "PX", "60000"},
	{"GET", "k"},
	{"INCRBY", "k", "2"},
	{"HSET", "h", "f", "v"},
	{"HGET", "h", "f"},
	{"HGETALL", "h"},
	{"HLEN", "h"},
	{"HINCRBY", "h", "n", "1"},
	{"HDEL", "h", "f"},
	{"XADD", "q", "*", "task", "c"},
	{"XLEN", "q"},
	{"XREADGROUP", "GROUP", "g", "w1", "STREAMS", "q", ">"},
	{"XREADGROUP", "GROUP", "g", "w1", "COUNT", "1", "BLOCK", "1", "STREAMS", "q", ">"},
	{"XREADGROUP", "GROUP", "g", "w1", "COUNT", "1", "BLOCK", "1", "STREAMS", "q", "r", ">", ">"},
	// A partition holder's read: r only while "lease" holds token v.
	{"XREADGROUP", "GROUP", "g", "w1", "COUNT", "1", "BLOCK", "1", "LEASES", "1", "lease", "v", "STREAMS", "q", "r", ">", ">"},
	{"XPENDING", "q", "g", "-", "+", "10", "w0"},
	{"XCLAIM", "q", "g", "w0", "0", "1-1", "1-2", "JUSTID"},
	{"XAUTOCLAIM", "q", "g", "w1", "0", "0-0", "COUNT", "1"},
	{"FENCEAPPLY", "h", "ledger:1", "INCR", "n", "1"},
	{"FENCEXACK", "q", "g", "w0", "pending", "0", "1-2", "1"},
	{"SINKAPPEND", "h", "gate:1", "1", "3", "INCRBY", "pending", "1"},
	// An owned partition's window: its read, then its commit (the lease
	// "lease" holds token v from the SET NX PX row).
	{"SINKAPPEND", "LEASE", "0", "h", "1", "lease", "v", "1", "3", "HGET", "n", "mark:2"},
	{"SINKAPPEND", "LEASE", "60000", "h", "1", "lease", "v", "3",
		"5", "HSET", "n", "5", "mark:2", "7", "2", "HDEL", "f",
		"7", "XACK", "q", "g", "w0", "pending", "1-2", "1"},
	{"DEL", "k"},
	// benchmark/.
	{"XACK", "q", "g", "1-1"},
	{"DBSIZE"},
	{"KEYS", "*"},
	// Inspection, and the bounded-stream seat.
	{"EXISTS", "h"},
	{"TYPE", "q"},
	{"TTL", "lease"},
	// A partition's release: its last commit gives the lease up.
	{"SINKAPPEND", "LEASE", "0", "h", "1", "lease", "v", "1", "2", "DEL", "lease"},
	{"INFO"},
	{"XRANGE", "q", "-", "+", "COUNT", "10"},
	{"XADD", "q", "MAXLEN", "~", "100", "*", "task", "d"},
	{"XTRIM", "q", "MAXLEN", "100"},
	{"FLUSHALL"},
}

// deletedArms are option arms of kept commands that nothing sends: each must
// answer an error rather than half-serve a form no test exercises. They run
// against the state sentForms laid out, before its FLUSHALL.
var deletedArms = [][]string{
	{"SET", "k", "v", "XX"},
	{"SET", "k", "v", "EX", "10"},
	{"XADD", "q", "NOMKSTREAM", "*", "task", "x"},
	{"XREADGROUP", "GROUP", "g", "w0", "NOACK", "STREAMS", "q", ">"},
	{"XREADGROUP", "GROUP", "g", "w0", "STREAMS", "q", "0"},
	{"XCLAIM", "q", "g", "w0", "0", "1-1"},
	{"XCLAIM", "q", "g", "w0", "0", "1-1", "FORCE", "JUSTID"},
	{"XAUTOCLAIM", "q", "g", "w0", "0", "0-0", "JUSTID"},
	{"XAUTOCLAIM", "q", "g", "w0", "0", "0-0", "COUNT", "1", "JUSTID"},
	{"XPENDING", "q", "g"},
	{"XPENDING", "q", "g", "IDLE", "10", "-", "+", "10"},
	{"XPENDING", "q", "g", "(1-1", "+", "10"},
	{"XRANGE", "q", "(1-1", "+"},
	// SINKAPPEND LEASE GATE: owned partitions fence by marks, plain HSET fields.
	{"SINKAPPEND", "LEASE", "0", "h", "1", "lease", "v", "1", "2", "GATE", "gate:2"},
}

// singleShot lists the commands that are never re-sent: their effect is
// relative (a second execution adds, appends, trims or delivers again).
var singleShot = []string{"INCRBY", "HINCRBY", "XADD", "XTRIM", "XREADGROUP", "XAUTOCLAIM"}

// TestLeaseFormsAreRetrySafe classifies each SINKAPPEND LEASE form sent: an
// owned partition's read, commit and release run only under the lease and
// hold only absolute subcommands, so the client re-sends every one of them.
func TestLeaseFormsAreRetrySafe(t *testing.T) {
	n := 0
	for _, argv := range sentForms {
		if len(argv) > 1 && argv[0] == "SINKAPPEND" && argv[1] == "LEASE" {
			n++
			if !redisclient.Retryable(argv) {
				t.Errorf("lease form %v is not retry-safe in redisclient.Retryable", argv)
			}
		}
	}
	if n != 3 {
		t.Errorf("%d SINKAPPEND LEASE forms in sentForms, want the read, the commit and the release", n)
	}
}

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

	srv, err := StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()
	served := map[string]bool{}
	for _, argv := range sentForms {
		served[argv[0]] = true
		if argv[0] == "FLUSHALL" {
			for _, arm := range deletedArms {
				var se redisclient.ServerError
				if _, err := cl.Do(arm...); !errors.As(err, &se) {
					t.Errorf("deleted arm %v answered %v, want an error reply", arm, err)
				}
			}
		}
		if _, err := cl.Do(argv...); err != nil {
			t.Errorf("sent form %v: %v", argv, err)
		}
	}
	for _, name := range want {
		if !served[name] {
			t.Errorf("%s is in the table but no sent form exercises it", name)
		}
	}
}
