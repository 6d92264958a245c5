package redisclient

import (
	"errors"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// CmdError wraps a command failure with the name of the command that failed,
// so callers see "redisclient: FENCEAPPLY: ..." instead of a bare error
// string with no context. It unwraps to the underlying cause, keeping
// errors.Is(err, ErrClosed) and errors.As(err, &ServerError) working.
type CmdError struct {
	// Cmd is the command verb that failed, as sent.
	Cmd string
	// Err is the underlying cause: a ServerError for error replies, a
	// transport error otherwise.
	Err error
}

// Error implements the error interface.
func (e *CmdError) Error() string {
	return "redisclient: " + strings.ToUpper(e.Cmd) + ": " + e.Err.Error()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CmdError) Unwrap() error { return e.Err }

// Retryable classifies the failure: true for transient faults (broken
// connections, timeouts, LOADING/BUSY/TRYAGAIN replies) where re-sending a
// retry-safe command may succeed, false for terminal replies (WRONGTYPE,
// NOGROUP, malformed arguments) where it cannot.
func (e *CmdError) Retryable() bool { return retryableError(e.Err) }

// retryableError reports whether an underlying failure is transient.
func retryableError(err error) bool {
	if errors.Is(err, ErrClosed) || errors.Is(err, faultinject.ErrKill) {
		return false
	}
	var se ServerError
	if errors.As(err, &se) {
		s := string(se)
		return strings.HasPrefix(s, "LOADING") ||
			strings.HasPrefix(s, "BUSY ") ||
			strings.HasPrefix(s, "TRYAGAIN")
	}
	var sf faultinject.ServerFault
	if errors.As(err, &sf) {
		return false
	}
	// Everything else is transport-level: refused dials, broken pipes, read
	// timeouts, injected connection drops.
	return true
}

// Retryable reports whether a command is safe to re-send when its reply was
// lost — the server may or may not have executed the first attempt, so only
// commands whose double execution is indistinguishable from a single one
// qualify. Three groups pass:
//
//   - reads, which have no effect to double;
//   - absolute-effect writes (SET, HSET, DEL, XACK...), where applying twice
//     equals applying once — XCLAIM among them, because the server serves
//     only its JUSTID form, which moves ownership and resets idle clocks
//     without counting a delivery;
//   - fenced compounds (FENCEAPPLY, SINKAPPEND), where the server-side
//     applied ledger absorbs the duplicate; SINKAPPEND's lease form holds
//     only absolute subcommands (reads, final values, ownership-ruled
//     acks, the lease's release) under a lease check.
//
// Relative-effect writes (INCRBY, HINCRBY, XADD, XTRIM, group reads and
// XAUTOCLAIM) stay single-shot. The classification is argv-aware where it
// must be: SET..NX is excluded (a lost "acquired" reply would leave the lock
// stuck while the retry reports failure), and FENCEXACK is retryable only
// when its direct decrement is zero — the PEL acks are ownership-fenced but
// the direct counter adjustment is not idempotent. Every command the server registers is
// classified here or in miniredis's TestCommandSurface single-shot list, so
// the two tables cannot drift.
func Retryable(argv []string) bool {
	if len(argv) == 0 {
		return false
	}
	switch strings.ToUpper(argv[0]) {
	case "PING", "EXISTS", "TYPE", "KEYS", "TTL", "INFO", "DBSIZE",
		"GET",
		"HGET", "HGETALL", "HLEN",
		"XLEN", "XRANGE", "XPENDING",
		"DEL", "HDEL", "XACK", "XCLAIM",
		"HSET", "XGROUP",
		"FLUSHALL",
		"FENCEAPPLY", "SINKAPPEND":
		return true
	case "SET":
		return !hasOption(argv, 3, "NX")
	case "FENCEXACK":
		return len(argv) > 5 && argv[5] == "0"
	default:
		return false
	}
}

// hasOption reports whether word appears among argv's trailing options, which
// start at index from (a short argv has none).
func hasOption(argv []string, from int, word string) bool {
	for i := from; i < len(argv); i++ {
		if strings.EqualFold(argv[i], word) {
			return true
		}
	}
	return false
}

// Retry backoff: the delay before the first retry, and the cap the
// doubling stops at.
const (
	retryBackoff    = 2 * time.Millisecond
	retryMaxBackoff = 50 * time.Millisecond
)

// backoff computes the sleep before retry attempt (1-based): retryBackoff
// doubled per attempt, capped at retryMaxBackoff, with ±50% jitter so
// colliding retriers spread out.
func backoff(attempt int) time.Duration {
	d := min(retryBackoff<<(attempt-1), retryMaxBackoff)
	// Jitter in [0.5, 1.5); the top-level rand functions are thread-safe.
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}
