// Package faultinject is the engine's deterministic fault-injection plane.
//
// A seeded Injector holds a schedule of faults, each bound to a named probe
// point — a location in the client, state, or runtime code that calls Fire
// when execution passes through it. When the injector is armed (process-wide,
// see Arm) and a scheduled fault matches the probe, the fault fires: the
// connection is dropped, the operation is delayed, a server error is
// synthesized, or the worker is killed mid-window. Unarmed, every probe is a
// single atomic pointer load returning nil, so production paths stay free.
//
// Determinism is the point: faults are keyed to the Nth matching hit of a
// probe (or to a seeded probability), so a chaos test can place a failure in
// an exact protocol window — "drop the connection after the first FENCEAPPLY
// was written but before its reply is read" — and replay it identically.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Probe points wired into the engine. Conn probes fire once per command with
// the command name; code probes fire with an empty command at the protocol
// windows the exactly-once design cares about.
const (
	// ProbeConnWrite fires in the client before a command is written to the
	// connection. A drop here loses the command before the server sees it.
	ProbeConnWrite = "conn-write"
	// ProbeConnRead fires in the client after a command was written and
	// flushed but before its reply is read. A drop here is the classic
	// reply-lost window: the server has executed the command, the client
	// cannot know — exactly what fenced retryable commands must survive.
	ProbeConnRead = "conn-read"
	// ProbeMidFinalFlush fires in the worker between running a Final hook and
	// flushing its buffered emissions. With the fenced atomic flush, a kill
	// here loses nothing: the task gate is recorded with the push, so the
	// replay redoes the whole Final.
	ProbeMidFinalFlush = "mid-final-flush"
	// ProbeMidCommit fires in a pool worker after a window of an owned
	// partition has executed and its emissions are pushed, before the commit
	// that lands its state, task gates and acks. A kill here loses the
	// window's effects and the partition's next holder redoes them; a delay
	// past the lease's TTL lets another worker take the partition over, and
	// the late commit then applies nothing.
	ProbeMidCommit = "mid-commit"
	// ProbeFusedCall fires in the worker after a fused successor ran inline
	// inside its parent's Process. A kill here returns through the parent's
	// Emit and fails the run with the fused child's effects applied and the
	// parent's later emissions unsent; a resumed rerun must re-stamp the
	// fused children identically so downstream fences drop what was applied.
	ProbeFusedCall = "fused-call"
)

// Kind enumerates the fault actions.
type Kind int

const (
	// ConnDrop poisons the in-flight connection: the probe returns
	// ErrConnDrop and the client closes the conn and surfaces a transport
	// error (retryable for idempotent/fenced commands). Other commands
	// sharing that connection fail as a dropped connection, as they would
	// in a real drop.
	ConnDrop Kind = iota
	// Delay sleeps Fault.Delay before letting the operation proceed —
	// a slow reply / stalled peer.
	Delay
	// ServerErr synthesizes an error reply (Fault.Err) in place of the real
	// one, as a ServerFault.
	ServerErr
	// Kill simulates the process dying at the probe: the probe returns
	// ErrKill, which the runtime treats as a terminal worker failure and the
	// client never retries.
	Kill
)

func (k Kind) String() string {
	switch k {
	case ConnDrop:
		return "conn-drop"
	case Delay:
		return "delay"
	case ServerErr:
		return "server-err"
	case Kill:
		return "kill"
	default:
		return "unknown"
	}
}

// ErrConnDrop is returned by a firing ConnDrop fault.
var ErrConnDrop = errors.New("faultinject: injected connection drop")

// ErrKill is returned by a firing Kill fault. It is terminal: the client must
// not retry it and the runtime fails the worker that hits it.
var ErrKill = errors.New("faultinject: injected kill")

// ServerFault is a synthesized server error reply.
type ServerFault string

// Error implements the error interface.
func (e ServerFault) Error() string {
	return "faultinject: injected server error: " + string(e)
}

// Fault is one scheduled fault.
type Fault struct {
	// Probe names the probe point the fault is bound to (required).
	Probe string
	// Cmd optionally restricts conn probes to one command name
	// (case-insensitive); empty matches every command.
	Cmd string
	// Hits arms the fault from the Nth matching hit on (1-based). Zero means
	// every hit. Ignored when Prob > 0.
	Hits int
	// Times bounds how often the fault fires. Zero means once when Hits
	// selects a specific occurrence, unlimited otherwise.
	Times int
	// Prob, when > 0, fires the fault with this probability per hit, drawn
	// from the injector's seeded generator — reproducible randomness.
	Prob float64
	// Kind selects the action.
	Kind Kind
	// Delay is the sleep of a Delay fault.
	Delay time.Duration
	// Err is the message of a ServerErr fault.
	Err string
}

// Event records one fired fault.
type Event struct {
	Seq   int
	Probe string
	Cmd   string
	Kind  Kind
}

// scheduled tracks one fault's match and fire counters.
type scheduled struct {
	f     Fault
	hits  int
	fired int
}

// Injector holds a fault schedule. Safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	faults  []*scheduled
	events  []Event
	seq     int
	journal func(probe, detail string)
}

// New creates an injector whose probabilistic faults draw from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Schedule adds one fault to the schedule. Returns the injector for chaining.
func (i *Injector) Schedule(f Fault) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.faults = append(i.faults, &scheduled{f: f})
	return i
}

// SetJournal installs a callback invoked once per fired fault (the diagnosis
// run-event journal's fault feed). It runs outside the injector lock.
func (i *Injector) SetJournal(fn func(probe, detail string)) {
	i.mu.Lock()
	i.journal = fn
	i.mu.Unlock()
}

// Fired returns the events fired so far, in firing order.
func (i *Injector) Fired() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.events...)
}

// FiredCount counts fired events at one probe.
func (i *Injector) FiredCount(probe string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, e := range i.events {
		if e.Probe == probe {
			n++
		}
	}
	return n
}

// fire evaluates the schedule at one probe hit. At most one fault fires per
// hit; Delay faults sleep and return nil, the rest return their error.
func (i *Injector) fire(probe, cmd string) error {
	i.mu.Lock()
	var hit *scheduled
	for _, s := range i.faults {
		if s.f.Probe != probe {
			continue
		}
		if s.f.Cmd != "" && !strings.EqualFold(s.f.Cmd, cmd) {
			continue
		}
		s.hits++
		if hit != nil {
			continue // one fault per probe hit; later matches still count hits
		}
		times := s.f.Times
		if times == 0 {
			if s.f.Prob > 0 || s.f.Hits == 0 {
				times = math.MaxInt
			} else {
				times = 1
			}
		}
		if s.fired >= times {
			continue
		}
		if s.f.Prob > 0 {
			if i.rng.Float64() >= s.f.Prob {
				continue
			}
		} else if s.hits < s.f.Hits {
			continue
		}
		s.fired++
		hit = s
	}
	if hit == nil {
		i.mu.Unlock()
		return nil
	}
	i.seq++
	ev := Event{Seq: i.seq, Probe: probe, Cmd: cmd, Kind: hit.f.Kind}
	i.events = append(i.events, ev)
	f := hit.f
	journal := i.journal
	i.mu.Unlock()

	if journal != nil {
		detail := f.Kind.String()
		if cmd != "" {
			detail += " " + strings.ToUpper(cmd)
		}
		detail += " @" + probe
		journal(probe, detail)
	}
	switch f.Kind {
	case Delay:
		time.Sleep(f.Delay)
		return nil
	case ServerErr:
		return ServerFault(f.Err)
	case Kill:
		return fmt.Errorf("%w at %s", ErrKill, probe)
	default:
		return fmt.Errorf("%w at %s", ErrConnDrop, probe)
	}
}

// --- Process-wide arming -----------------------------------------------------

// active is the armed injector; nil keeps every probe a single atomic load.
var active atomic.Pointer[Injector]

// Arm makes i the process-wide injector consulted by every probe. Chaos tests
// arm one injector for a run and Disarm in cleanup; concurrent tests against
// different injectors must not run in parallel.
func Arm(i *Injector) { active.Store(i) }

// Disarm removes the armed injector.
func Disarm() { active.Store(nil) }

// Active returns the armed injector, or nil.
func Active() *Injector { return active.Load() }

// Fire evaluates the armed injector at a code probe (no command context).
// It returns nil when no injector is armed or no fault fires.
func Fire(probe string) error { return FireCmd(probe, "") }

// FireCmd evaluates the armed injector at a conn probe carrying the command
// name being executed.
func FireCmd(probe, cmd string) error {
	i := active.Load()
	if i == nil {
		return nil
	}
	return i.fire(probe, cmd)
}
