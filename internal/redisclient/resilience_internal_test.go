package redisclient

import "testing"

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		argv []string
		want bool
	}{
		{[]string{"GET", "k"}, true},
		{[]string{"HSET", "h", "f", "v"}, true},
		{[]string{"DEL", "k"}, true},
		{[]string{"SET", "k", "v"}, true},
		{[]string{"SET", "k", "v", "NX", "PX", "100"}, false}, // lock-stuck hazard
		{[]string{"INCRBY", "k", "1"}, false},                 // relative effect
		{[]string{"HINCRBY", "h", "f", "1"}, false},
		{[]string{"XADD", "q", "*", "f", "v"}, false},
		{[]string{"XTRIM", "q", "MAXLEN", "10"}, false},
		{[]string{"XREADGROUP", "GROUP", "g", "w0"}, false},
		{[]string{"FENCEAPPLY", "h", "lf", "SET", "k", "v"}, true}, // ledger-gated
		{[]string{"SINKAPPEND", "h", "lf", "0"}, true},
		{[]string{"FENCEXACK", "q", "g", "w0", "p", "0", "1-1", "2"}, true},
		{[]string{"FENCEXACK", "q", "g", "w0", "p", "3", "1-1", "2"}, false}, // direct dec not idempotent
		{[]string{"XCLAIM", "q", "g", "w0", "0", "1-1", "JUSTID"}, true},     // the one form served
		{[]string{"XAUTOCLAIM", "q", "g", "w0", "0", "0-0", "COUNT", "8"}, false},
		{[]string{"SET"}, true},             // short argv: classified, never indexed out of range
		{[]string{"MGET", "a", "b"}, false}, // not served, so not retried
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.argv); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.argv, got, c.want)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	for attempt := 1; attempt <= 6; attempt++ {
		d := backoff(attempt)
		// ±50% jitter around the capped doubling: never under half the
		// base, never past 1.5× the cap.
		if d < retryBackoff/2 || d > retryMaxBackoff*3/2 {
			t.Fatalf("backoff(attempt=%d) = %v out of bounds", attempt, d)
		}
	}
}
