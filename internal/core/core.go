// Package core defines the dispel4py-style processing-element (PE)
// programming model: the PE interface, the execution Context PEs emit
// through, and functional helpers for building common PE shapes (sources,
// maps, filters, sinks).
//
// Users compose PEs into an abstract workflow with package graph and execute
// it with one of the mappings (simple, multi, dyn_multi, dyn_auto_multi,
// dyn_redis, dyn_auto_redis, hybrid_redis). PEs are written once and run
// unchanged under every mapping, which is the central promise of the
// dispel4py design the paper builds on.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/state"
)

// Default port names. Most PEs have a single input and a single output.
const (
	PortIn  = "in"
	PortOut = "out"
)

// PE is one processing element: the computational building block of a
// workflow. Implementations must be safe to use from a single goroutine;
// the engine creates one PE value per instance (via the node factory), so a
// PE may keep per-instance state in its fields. A PE whose state influences
// results across Process calls must be declared stateful on its graph node.
type PE interface {
	// Name identifies the PE within a workflow graph.
	Name() string
	// InPorts lists input port names. Source PEs return nil.
	InPorts() []string
	// OutPorts lists output port names. Sink PEs return nil.
	OutPorts() []string
	// Process handles one data unit arriving on port, emitting any outputs
	// through ctx. Returning an error aborts the workflow run.
	Process(ctx *Context, port string, value any) error
}

// Source is a PE that produces the workflow's input stream. The engine calls
// Generate exactly once (on instance 0) instead of feeding Process.
type Source interface {
	PE
	// Generate emits the source stream through ctx and returns when the
	// stream is exhausted.
	Generate(ctx *Context) error
}

// Initializer is an optional PE lifecycle hook run once per instance before
// any data is processed.
type Initializer interface {
	Init(ctx *Context) error
}

// Finalizer is an optional PE lifecycle hook run once per instance after the
// instance's input stream is exhausted. Stateful aggregators flush their
// results here (for example the sentiment workflow's top-3 ranking).
type Finalizer interface {
	Final(ctx *Context) error
}

// Context is the handle a PE instance uses to interact with the engine: it
// emits outputs, models service time on the simulated platform, and exposes
// a deterministic per-instance random source.
type Context struct {
	peName   string
	instance int
	host     *platform.Host
	rng      *rand.Rand
	emit     func(port string, value any) error
	store    state.Store
}

// NewContext builds a Context. Mappings construct one per PE instance; emit
// routes an output value to the connected destinations. host may be nil when
// no platform simulation is wanted (plain library use).
func NewContext(peName string, instance int, host *platform.Host, rng *rand.Rand, emit func(port string, value any) error) *Context {
	return &Context{peName: peName, instance: instance, host: host, rng: rng, emit: emit}
}

// Instance returns the zero-based instance index of the PE copy running.
func (c *Context) Instance() int { return c.instance }

// State returns the PE's managed state store. It panics when the node
// declared no managed state (graph.Node.SetKeyedState/SetSingletonState) —
// a composition-time programming error, mirroring graph's panics.
func (c *Context) State() state.Store {
	if c.store == nil {
		panic(fmt.Sprintf("core: PE %s has no managed state store; declare one with SetKeyedState or SetSingletonState on its graph node", c.peName))
	}
	return c.store
}

// WithStore returns a copy of the context carrying the managed state store.
// Mappings call it when constructing contexts for managed-state nodes.
func (c *Context) WithStore(st state.Store) *Context {
	cp := *c
	cp.store = st
	return &cp
}

// Emit sends value out of the named port. Usually it returns once the value
// is accepted by the transport (channel, queue or Redis stream), or buffered
// for a batched push. On an edge the engine has fused — a cheap stateless
// successor on the same pool worker — it instead runs that successor's
// Process inline, and returns when it (and anything it fused in turn) is
// done; its error, if any, comes back from Emit.
func (c *Context) Emit(port string, value any) error {
	if c.emit == nil {
		return fmt.Errorf("core: PE %s emitted on %q outside an execution context", c.peName, port)
	}
	return c.emit(port, value)
}

// EmitDefault sends value on the default output port.
func (c *Context) EmitDefault(value any) error { return c.Emit(PortOut, value) }

// Work models d of PE service time: the calling instance occupies one
// simulated core for that long. PEs use it to express compute/IO cost; under
// a nil host it degrades to a plain sleep so behaviour is consistent.
func (c *Context) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.host != nil {
		c.host.Work(d)
		return
	}
	time.Sleep(d)
}

// Rand returns the instance's deterministic random source (never nil).
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return c.rng
}

// Base provides Name/InPorts/OutPorts plumbing for PE implementations.
// Embed it and implement Process (plus Generate for sources).
type Base struct {
	name string
	in   []string
	out  []string
}

// NewBase constructs the embedded plumbing for a PE with the given ports.
func NewBase(name string, in, out []string) Base {
	return Base{name: name, in: in, out: out}
}

// Name implements PE.
func (b *Base) Name() string { return b.name }

// InPorts implements PE.
func (b *Base) InPorts() []string { return b.in }

// OutPorts implements PE.
func (b *Base) OutPorts() []string { return b.out }

// In returns the single input port set, for one-in PEs.
func In() []string { return []string{PortIn} }

// Out returns the single output port set, for one-out PEs.
func Out() []string { return []string{PortOut} }

// --- Functional PE constructors ---------------------------------------------

// MapPE applies a function to each input value, emitting the result on the
// default output port. A nil result (with nil error) emits nothing, so MapPE
// doubles as a filter-map.
type MapPE struct {
	Base
	fn func(ctx *Context, value any) (any, error)
}

// NewMap builds a one-in one-out PE from fn.
func NewMap(name string, fn func(ctx *Context, value any) (any, error)) *MapPE {
	return &MapPE{Base: NewBase(name, In(), Out()), fn: fn}
}

// Process implements PE.
func (m *MapPE) Process(ctx *Context, port string, value any) error {
	out, err := m.fn(ctx, value)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return ctx.EmitDefault(out)
}

// EachPE invokes a function per input value; the function may emit zero or
// more outputs itself. It is the general-purpose streaming PE.
type EachPE struct {
	Base
	fn func(ctx *Context, value any) error
}

// NewEach builds a one-in one-out PE whose function emits explicitly.
func NewEach(name string, fn func(ctx *Context, value any) error) *EachPE {
	return &EachPE{Base: NewBase(name, In(), Out()), fn: fn}
}

// Process implements PE.
func (e *EachPE) Process(ctx *Context, port string, value any) error {
	return e.fn(ctx, value)
}

// SourcePE produces a stream from a generator function.
type SourcePE struct {
	Base
	gen func(ctx *Context) error
}

// NewSource builds a source PE whose generator emits on the default port.
func NewSource(name string, gen func(ctx *Context) error) *SourcePE {
	return &SourcePE{Base: NewBase(name, nil, Out()), gen: gen}
}

// Process implements PE; sources receive no input.
func (s *SourcePE) Process(ctx *Context, port string, value any) error {
	return fmt.Errorf("core: source PE %s received unexpected input on %q", s.Name(), port)
}

// Generate implements Source.
func (s *SourcePE) Generate(ctx *Context) error { return s.gen(ctx) }

// SinkPE consumes values without emitting.
type SinkPE struct {
	Base
	fn func(ctx *Context, value any) error
}

// NewSink builds a terminal PE from fn.
func NewSink(name string, fn func(ctx *Context, value any) error) *SinkPE {
	return &SinkPE{Base: NewBase(name, In(), nil), fn: fn}
}

// Process implements PE.
func (s *SinkPE) Process(ctx *Context, port string, value any) error {
	return s.fn(ctx, value)
}

// Compile-time interface checks for the helper PEs.
var (
	_ PE     = (*MapPE)(nil)
	_ PE     = (*EachPE)(nil)
	_ Source = (*SourcePE)(nil)
	_ PE     = (*SinkPE)(nil)
)
