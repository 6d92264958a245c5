package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestUnarmedProbesAreFree(t *testing.T) {
	Disarm()
	if err := Fire(ProbeMidFinalFlush); err != nil {
		t.Fatalf("unarmed probe fired: %v", err)
	}
	if err := FireCmd(ProbeConnRead, "GET"); err != nil {
		t.Fatalf("unarmed conn probe fired: %v", err)
	}
}

func TestHitScheduling(t *testing.T) {
	inj := New(1).Schedule(Fault{Probe: ProbeConnRead, Cmd: "GET", Hits: 2})
	Arm(inj)
	t.Cleanup(Disarm)

	if err := FireCmd(ProbeConnRead, "SET"); err != nil {
		t.Fatalf("non-matching cmd fired: %v", err)
	}
	if err := FireCmd(ProbeConnRead, "GET"); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	if err := FireCmd(ProbeConnRead, "get"); !errors.Is(err, ErrConnDrop) {
		t.Fatalf("hit 2 (case-insensitive) should drop: %v", err)
	}
	// Hits with zero Times fires exactly once.
	if err := FireCmd(ProbeConnRead, "GET"); err != nil {
		t.Fatalf("fault fired past its Times budget: %v", err)
	}
	if got := inj.FiredCount(ProbeConnRead); got != 1 {
		t.Fatalf("FiredCount=%d want 1", got)
	}
}

func TestKindsAndEvents(t *testing.T) {
	inj := New(1).
		Schedule(Fault{Probe: "p-kill", Kind: Kill, Hits: 1}).
		Schedule(Fault{Probe: "p-err", Kind: ServerErr, Err: "LOADING try later", Hits: 1}).
		Schedule(Fault{Probe: "p-delay", Kind: Delay, Delay: time.Millisecond, Hits: 1})
	Arm(inj)
	t.Cleanup(Disarm)

	if err := Fire("p-kill"); !errors.Is(err, ErrKill) {
		t.Fatalf("kill: %v", err)
	}
	var sf ServerFault
	if err := Fire("p-err"); !errors.As(err, &sf) || string(sf) != "LOADING try later" {
		t.Fatalf("server-err: %v", err)
	}
	start := time.Now()
	if err := Fire("p-delay"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay fault did not sleep")
	}
	evs := inj.Fired()
	if len(evs) != 3 || evs[0].Kind != Kill || evs[1].Kind != ServerErr || evs[2].Kind != Delay {
		t.Fatalf("events: %+v", evs)
	}
}

func TestJournalCallback(t *testing.T) {
	inj := New(1).Schedule(Fault{Probe: ProbeMidFinalFlush, Kind: Kill, Hits: 1})
	var details []string
	inj.SetJournal(func(probe, detail string) { details = append(details, probe+"|"+detail) })
	Arm(inj)
	t.Cleanup(Disarm)
	_ = Fire(ProbeMidFinalFlush)
	if len(details) != 1 || details[0] != ProbeMidFinalFlush+"|kill @"+ProbeMidFinalFlush {
		t.Fatalf("journal: %v", details)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func() []int {
		inj := New(42).Schedule(Fault{Probe: "p", Prob: 0.3})
		Arm(inj)
		defer Disarm()
		var fired []int
		for n := 0; n < 50; n++ {
			if Fire("p") != nil {
				fired = append(fired, n)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("degenerate draw: %d fires", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a, b)
		}
	}
}
