package main

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/workflows/galaxy"
)

// Counted is the session workload's output: the user's running count after
// one event was folded into keyed state.
type Counted struct {
	Seq   int64
	User  string
	Count int64
}

// Enriched is the enrich workload's output: the looked-up profile value.
type Enriched struct {
	Seq   int64
	User  string
	Value string
}

func init() {
	codec.Register(synth.SessionEvent{})
	codec.Register(Counted{})
	codec.Register(Enriched{})
}

// fault makes the benchmark's own PEs misbehave on one event, so the smoke
// test can show that the oracle trips. -1 disables.
type fault struct {
	dropSeq, corruptSeq int
}

var noFault = fault{dropSeq: -1, corruptSeq: -1}

// sum64 is the oracle's payload checksum (FNV-1a over the parts).
func sum64(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// enrichValue is f(user): the value the cache-aside lookup must return.
func enrichValue(user string) string {
	return "profile:" + user + ":" + strconv.FormatUint(sum64(user)%9973, 10)
}

// expectation replays the seeded generator and returns the oracle's
// checksum of every event. The source replays the same generator inside the
// timed run; the program under test receives only the events.
func (w *workload) expectation(seed int64, n int) []uint64 {
	want := make([]uint64, n)
	if w.name == "galaxy_auto" {
		for i, g := range synth.GalaxyCatalog(seed, n) {
			want[i] = math.Float64bits(synth.InternalExtinction(g.MorphType, g.LogR25))
		}
		return want
	}
	gen := synth.NewSessionGen(seed, w.users, w.skew)
	for i := range want {
		ev := gen.Next()
		if w.name == "relay" {
			want[i] = sum64(ev.User, ev.Action)
		} else {
			want[i] = sum64(ev.User)
		}
	}
	return want
}

// stage records the spans of one PE instance at one pipeline position
// (0 is the source). Every method is a no-op for unsampled events.
type stage struct {
	col *collector
	buf *spanBuf
	pe  string
	pos int
}

func newStage(col *collector, pe string, pos int) *stage {
	return &stage{col: col, buf: col.newBuf(), pe: pe, pos: pos}
}

func (s *stage) add(seq int, kind string, start, end int64) {
	s.buf.spans = append(s.buf.spans, span{Ev: seq, PE: s.pe, Kind: kind, Start: start, End: end})
}

// begin opens the service span of event seq and closes the hop that
// brought it here. It returns the service start (0 when unsampled).
func (s *stage) begin(seq int) int64 {
	if !s.col.sampled(seq) {
		return 0
	}
	now := s.col.now()
	if s.pos > 0 {
		s.add(seq, "hop", atomic.LoadInt64(&s.col.emitAt[s.pos-1][seq/s.col.sampleEvery]), now)
	}
	return now
}

// end closes the service span opened by begin.
func (s *stage) end(seq int, start int64) {
	if start != 0 {
		s.add(seq, "service", start, s.col.now())
	}
}

// state records a state span from start to now.
func (s *stage) state(seq int, start int64) {
	if start != 0 {
		s.add(seq, "state", start, s.col.now())
	}
}

// emit wraps EmitDefault in an emit span; the hop into the next stage
// starts where the emit call returns.
func (s *stage) emit(ctx *core.Context, seq int, v any) error {
	if !s.col.sampled(seq) {
		return ctx.EmitDefault(v)
	}
	start := s.col.now()
	err := ctx.EmitDefault(v)
	end := s.col.now()
	s.add(seq, "emit", start, end)
	atomic.StoreInt64(&s.col.emitAt[s.pos][seq/s.col.sampleEvery], end)
	return err
}

// stageNow is the span start to pass to state/end: the clock when the event
// is sampled, else 0.
func (s *stage) stageNow(seq int) int64 {
	if !s.col.sampled(seq) {
		return 0
	}
	return s.col.now()
}

// pace blocks the generator until tick i of a paced run is due and records
// how late it is; closed-loop runs (rate 0) return at once.
func pace(col *collector, i int) {
	if col.rate == 0 {
		return
	}
	due := col.due(i)
	now := col.now()
	if now < due {
		time.Sleep(time.Duration(due - now))
		now = col.now()
	}
	col.lag[i] = now - due
}

// startPacing fixes the paced schedule's origin at the first tick.
func startPacing(col *collector, rate float64) {
	col.rate = rate
	if rate > 0 {
		col.lag = make([]int64, col.n)
		col.pacedStart = col.now()
	}
}

// buildGraph returns the workload's graph over n events from seed, offered
// at rate (0 = as fast as Emit admits). own forces the benchmark-built
// galaxy stages where the batch phase would use galaxy.New.
func (w *workload) buildGraph(col *collector, seed int64, n int, rate float64, own bool, f fault) *graph.Graph {
	if w.name == "galaxy_auto" {
		if rate == 0 && !own {
			return galaxy.New(galaxy.Config{Galaxies: n, Heavy: true, Seed: seed, OnResult: func(name string, ext float64) {
				col.deliver(galaxyIndex(name), math.Float64bits(ext), 0)
			}})
		}
		return galaxyGraph(col, seed, n, rate)
	}
	return w.sessionGraph(col, seed, n, rate, f)
}

// sessionGraph builds gen → work → sink for the three Redis workloads; they
// differ only in what the work stage does with the event.
func (w *workload) sessionGraph(col *collector, seed int64, n int, rate float64, f fault) *graph.Graph {
	g := graph.New("bench_" + w.name)
	g.Add(func() core.PE {
		st := newStage(col, "gen", 0)
		return core.NewSource("gen", func(ctx *core.Context) error {
			gen := synth.NewSessionGen(seed, w.users, w.skew)
			startPacing(col, rate)
			for i := 0; i < n; i++ {
				pace(col, i)
				ev := gen.Next()
				col.offer()
				if err := st.emit(ctx, i, ev); err != nil {
					return err
				}
			}
			return nil
		})
	})

	work := g.Add(func() core.PE {
		st := newStage(col, "work", 1)
		return core.NewEach("work", func(ctx *core.Context, v any) error {
			ev, ok := v.(synth.SessionEvent)
			if !ok {
				return fmt.Errorf("work: unexpected payload %T", v)
			}
			seq := int(ev.Seq)
			t := st.begin(seq)
			err := w.work(ctx, st, ev, f)
			st.end(seq, t)
			return err
		})
	})
	if w.name != "relay" {
		work.SetKeyedState()
	}

	g.Add(func() core.PE {
		st := newStage(col, "sink", 2)
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			var seq int
			var check uint64
			var count int64
			good := true
			switch u := v.(type) {
			case synth.SessionEvent:
				seq, check = int(u.Seq), sum64(u.User, u.Action)
			case Counted:
				seq, check, count = int(u.Seq), sum64(u.User), u.Count
			case Enriched:
				seq, check, good = int(u.Seq), sum64(u.User), u.Value == enrichValue(u.User)
			default:
				return fmt.Errorf("sink: unexpected payload %T", v)
			}
			t := st.begin(seq)
			if good {
				col.deliver(seq, check, count)
			} else {
				col.bad.Add(1)
			}
			st.end(seq, t)
			return nil
		})
	})

	in := g.Pipe("gen", "work")
	if w.name != "relay" {
		// Managed keyed state wants key-affine routing.
		in.SetGrouping(graph.GroupByKey(func(v any) string { return v.(synth.SessionEvent).User }))
	}
	g.Pipe("work", "sink")
	return g
}

// work is the middle stage's body: echo (relay), one keyed AddInt (session)
// or a cache-aside lookup (enrich).
func (w *workload) work(ctx *core.Context, st *stage, ev synth.SessionEvent, f fault) error {
	seq := int(ev.Seq)
	if seq == f.dropSeq {
		return nil
	}
	switch w.name {
	case "relay":
		return st.emit(ctx, seq, ev)
	case "session":
		ts := st.stageNow(seq)
		count, err := ctx.State().AddInt(ev.User, 1)
		st.state(seq, ts)
		if err != nil {
			return err
		}
		if seq == f.corruptSeq {
			count += 1000
		}
		return st.emit(ctx, seq, Counted{Seq: ev.Seq, User: ev.User, Count: count})
	default: // enrich
		ts := st.stageNow(seq)
		val, hit, err := ctx.State().Get(ev.User)
		if err == nil && !hit {
			val = enrichValue(ev.User)
			err = ctx.State().Put(ev.User, val)
		}
		st.state(seq, ts)
		if err != nil {
			return err
		}
		if seq == f.corruptSeq {
			val = "wrong"
		}
		return st.emit(ctx, seq, Enriched{Seq: ev.Seq, User: ev.User, Value: val})
	}
}

// galaxyIndex recovers the catalog index from a name like SYN00042.
func galaxyIndex(name string) int {
	i, err := strconv.Atoi(name[3:])
	if err != nil {
		return -1
	}
	return i
}

// galaxyGraph is the benchmark-built copy of the heavy Internal Extinction
// workflow: the same four stages, service times and payload types as
// galaxy.New, behind a source that can be paced and with stages that record
// spans.
func galaxyGraph(col *collector, seed int64, n int, rate float64) *graph.Graph {
	g := graph.New("bench_galaxy")
	heavy := func(ctx *core.Context) {
		ctx.Work(time.Duration(synth.Beta(ctx.Rand(), 2, 5) * float64(galaxyHeavyMax)))
	}
	g.Add(func() core.PE {
		st := newStage(col, "readRaDec", 0)
		return core.NewSource("readRaDec", func(ctx *core.Context) error {
			catalog := synth.GalaxyCatalog(seed, n)
			startPacing(col, rate)
			for i, gal := range catalog {
				pace(col, i)
				ctx.Work(galaxyReadCost)
				col.offer()
				if err := st.emit(ctx, i, gal); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		st := newStage(col, "getVOTable", 1)
		return core.NewEach("getVOTable", func(ctx *core.Context, v any) error {
			gal, ok := v.(synth.Galaxy)
			if !ok {
				return fmt.Errorf("getVOTable: unexpected payload %T", v)
			}
			seq := galaxyIndex(gal.Name)
			t := st.begin(seq)
			ctx.Work(galaxyVOCost)
			heavy(ctx)
			rows := synth.MakeVOTable(gal, galaxyVORows, seed)
			err := st.emit(ctx, seq, galaxy.VOTablePayload{Galaxy: gal, Rows: rows})
			st.end(seq, t)
			return err
		})
	})
	g.Add(func() core.PE {
		st := newStage(col, "filterColumns", 2)
		return core.NewEach("filterColumns", func(ctx *core.Context, v any) error {
			p, ok := v.(galaxy.VOTablePayload)
			if !ok || len(p.Rows) == 0 {
				return fmt.Errorf("filterColumns: unexpected payload %T", v)
			}
			seq := galaxyIndex(p.Galaxy.Name)
			t := st.begin(seq)
			ctx.Work(galaxyFilterCost)
			heavy(ctx)
			row := p.Rows[0]
			err := st.emit(ctx, seq, galaxy.FilteredPayload{Name: p.Galaxy.Name, MorphType: row.Columns["t"], LogR25: row.Columns["logr25"]})
			st.end(seq, t)
			return err
		})
	})
	g.Add(func() core.PE {
		st := newStage(col, "internalExtinction", 3)
		return core.NewSink("internalExtinction", func(ctx *core.Context, v any) error {
			p, ok := v.(galaxy.FilteredPayload)
			if !ok {
				return fmt.Errorf("internalExtinction: unexpected payload %T", v)
			}
			seq := galaxyIndex(p.Name)
			t := st.begin(seq)
			ctx.Work(galaxyExtCost)
			ext := synth.InternalExtinction(p.MorphType, p.LogR25)
			col.deliver(seq, math.Float64bits(ext), 0)
			st.end(seq, t)
			return nil
		})
	})
	g.Pipe("readRaDec", "getVOTable")
	g.Pipe("getVOTable", "filterColumns")
	g.Pipe("filterColumns", "internalExtinction")
	return g
}

// check runs the oracle over a finished run and returns how many of the n
// offered events were not correctly delivered. execErr fails the whole run.
func (w *workload) check(col *collector, execErr error) int {
	if execErr != nil {
		return col.n
	}
	failed := col.notExactlyOnce() + int(col.bad.Load())
	if w.name == "session" {
		failed += sessionCountErrors(col)
	}
	return min(failed, col.n)
}

// sessionCountErrors checks that each user's delivered counts are exactly
// {1..k} with k the generator-side tally, and returns the number of events
// of users for which that does not hold.
func sessionCountErrors(col *collector) int {
	byUser := map[uint64][]int{}
	for seq, u := range col.want {
		byUser[u] = append(byUser[u], seq)
	}
	failed := 0
	for _, seqs := range byUser {
		hit := make([]bool, len(seqs)+1)
		ok := true
		for _, seq := range seqs {
			c := col.got[seq]
			if col.seen[seq] != 1 {
				continue // already counted as not exactly once
			}
			if c < 1 || c > int64(len(seqs)) || hit[c] {
				ok = false
				break
			}
			hit[c] = true
		}
		if !ok {
			failed += len(seqs)
		}
	}
	return failed
}
