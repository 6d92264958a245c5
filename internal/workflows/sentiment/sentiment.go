// Package sentiment implements the paper's third use case: Sentiment
// Analyses for News Articles (Section 4.3), the stateful workflow used to
// evaluate hybrid_redis against multi.
//
// Topology (Figure 7): articles flow through two parallel scoring pathways
// — an AFINN lexicon scorer, and a tokenizer feeding an SWN3 scorer — each
// followed by a findState PE; both pathways converge on the stateful
// happyState PE (4 instances, grouped by 'state'), whose per-state totals
// feed the stateful top3Happiest PE under the global grouping.
//
// Instance counts follow the paper's experiment setup: happyState ×4 and
// top3Happiest ×2 (stateful, pinned), the two findState PEs ×2 each, the
// scorers and reader ×1 — which makes the static multi mapping demand its
// paper-quoted minimum of 14 processes.
//
// Config.ManagedState selects an alternative implementation of the two
// stateful PEs on the managed state subsystem (package state): identical
// results, but the state is externalized, so the workflow additionally runs
// under the plain dynamic mappings and can resume after a crash.
package sentiment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/state"
	"repro/internal/synth"
)

// Config parameterizes the workflow.
type Config struct {
	// Articles is the stream length; 0 means 120.
	Articles int
	// Seed drives the synthetic corpus.
	Seed int64
	// HappyInstances is the happyState instance count; 0 means 4.
	HappyInstances int
	// TopInstances is the top3Happiest instance count; 0 means 2.
	TopInstances int
	// ManagedState switches the two stateful PEs from field state (the
	// paper-faithful model: state pinned to instances, dynamic mappings
	// reject the workflow) to the managed state subsystem (package state):
	// happyState keeps keyed per-state totals and top3Happiest a singleton
	// ranking in engine-managed stores, which lets the workflow run under
	// every mapping — including dyn_multi/dyn_redis — and resume after a
	// crash.
	ManagedState bool
	// OnTop3, when non-nil, receives the final top-3 ranking from each
	// top3Happiest instance that holds data (with global grouping, exactly
	// one; with ManagedState, from the single engine-invoked Final). It must
	// be safe for concurrent use.
	OnTop3 func([]StateScore)
}

func (c Config) withDefaults() Config {
	if c.Articles <= 0 {
		c.Articles = 120
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HappyInstances <= 0 {
		c.HappyInstances = 4
	}
	if c.TopInstances <= 0 {
		c.TopInstances = 2
	}
	return c
}

// ScoredPayload is an article score tagged with its origin pathway.
type ScoredPayload struct {
	State  string
	Score  float64
	Source string // "afinn" or "swn3"
}

// TokensPayload carries tokenized article text between tokenizeWD and
// sentimentSWN3.
type TokensPayload struct {
	State  string
	Tokens []string
}

// StateScore is a per-state aggregate.
type StateScore struct {
	State string
	Score float64
}

func init() {
	codec.Register(synth.Article{})
	codec.Register(ScoredPayload{})
	codec.Register(TokensPayload{})
	codec.Register(StateScore{})
	codec.Register([]StateScore(nil))
}

// Service costs (scaled): lexicon scoring is the bulk of the work; SWN3 is
// costlier than AFINN (two lookups per token); state extraction is cheap.
// The absolute level is calibrated so that PE compute dominates transport
// overhead, as in the original NLTK-based workflow — that is what makes
// multi's single-instance scorer stages the bottleneck the paper's
// hybrid_redis overtakes.
const (
	readCost     = 600 * time.Microsecond
	afinnCost    = 6 * time.Millisecond
	tokenizeCost = 4 * time.Millisecond
	swn3Cost     = 8 * time.Millisecond
	findCost     = 2 * time.Millisecond
	happyCost    = 1200 * time.Microsecond
	topCost      = 400 * time.Microsecond
)

// MinMultiProcesses is the minimum process budget the static multi mapping
// needs for this workflow with the default instance counts (the paper: "multi
// demands a minimum of 14 processes due to its one-to-one
// instance-to-process mapping").
const MinMultiProcesses = 1 + 1 + 1 + 1 + 2 + 2 + 4 + 2

// New builds the abstract workflow.
func New(cfg Config) *graph.Graph {
	cfg = cfg.withDefaults()
	g := graph.New("sentiment")

	g.Add(func() core.PE {
		return core.NewSource("readArticles", func(ctx *core.Context) error {
			for _, art := range synth.Articles(cfg.Seed, cfg.Articles) {
				ctx.Work(readCost)
				if err := ctx.EmitDefault(art); err != nil {
					return err
				}
			}
			return nil
		})
	})

	g.Add(func() core.PE {
		return core.NewMap("sentimentAFINN", func(ctx *core.Context, v any) (any, error) {
			art, ok := v.(synth.Article)
			if !ok {
				return nil, fmt.Errorf("sentimentAFINN: unexpected payload %T", v)
			}
			ctx.Work(afinnCost)
			return ScoredPayload{State: art.State, Score: float64(synth.ScoreAFINN(art.Body)), Source: "afinn"}, nil
		})
	})

	g.Add(func() core.PE {
		return core.NewMap("tokenizeWD", func(ctx *core.Context, v any) (any, error) {
			art, ok := v.(synth.Article)
			if !ok {
				return nil, fmt.Errorf("tokenizeWD: unexpected payload %T", v)
			}
			ctx.Work(tokenizeCost)
			return TokensPayload{State: art.State, Tokens: synth.Tokenize(art.Body)}, nil
		})
	})

	g.Add(func() core.PE {
		return core.NewMap("sentimentSWN3", func(ctx *core.Context, v any) (any, error) {
			tk, ok := v.(TokensPayload)
			if !ok {
				return nil, fmt.Errorf("sentimentSWN3: unexpected payload %T", v)
			}
			ctx.Work(swn3Cost)
			return ScoredPayload{State: tk.State, Score: synth.ScoreSWN3(tk.Tokens), Source: "swn3"}, nil
		})
	})

	findState := func(name string) func() core.PE {
		return func() core.PE {
			return core.NewMap(name, func(ctx *core.Context, v any) (any, error) {
				sc, ok := v.(ScoredPayload)
				if !ok {
					return nil, fmt.Errorf("%s: unexpected payload %T", name, v)
				}
				ctx.Work(findCost)
				// State identification: validate against the known state
				// list (articles with unrecognized locations are dropped,
				// as in the original workflow).
				for _, s := range synth.USStates {
					if s == sc.State {
						return sc, nil
					}
				}
				return nil, nil
			})
		}
	}
	g.Add(findState("findStateAFINN")).SetInstances(2)
	g.Add(findState("findStateSWN3")).SetInstances(2)

	if cfg.ManagedState {
		g.Add(newManagedHappyState).SetInstances(cfg.HappyInstances).SetKeyedState()
		g.Add(func() core.PE { return newManagedTop3(cfg.OnTop3) }).SetInstances(cfg.TopInstances).SetSingletonState()
	} else {
		g.Add(newHappyState).SetInstances(cfg.HappyInstances).SetStateful(true)
		g.Add(func() core.PE { return newTop3(cfg.OnTop3) }).SetInstances(cfg.TopInstances).SetStateful(true)
	}

	g.Pipe("readArticles", "sentimentAFINN")
	g.Pipe("readArticles", "tokenizeWD")
	g.Pipe("tokenizeWD", "sentimentSWN3")
	g.Pipe("sentimentAFINN", "findStateAFINN")
	g.Pipe("sentimentSWN3", "findStateSWN3")
	byState := graph.GroupByKey(func(v any) string { return v.(ScoredPayload).State })
	g.Connect("findStateAFINN", core.PortOut, "happyState", core.PortIn).SetGrouping(byState)
	g.Connect("findStateSWN3", core.PortOut, "happyState", core.PortIn).SetGrouping(byState)
	g.Pipe("happyState", "top3Happiest").SetGrouping(graph.GlobalGrouping())
	return g
}

// happyState aggregates sentiment per state; group-by routing guarantees
// each state is owned by exactly one instance, so the per-instance maps are
// disjoint. At Final each instance flushes its totals.
//
// Totals accumulate in integer hundredths so the aggregate is independent
// of arrival order — parallel mappings interleave the two scoring pathways
// nondeterministically, and float addition is not associative.
type happyState struct {
	core.Base
	totals map[string]int64 // score hundredths
}

func newHappyState() core.PE {
	return &happyState{Base: core.NewBase("happyState", core.In(), core.Out()), totals: map[string]int64{}}
}

// Process implements core.PE.
func (h *happyState) Process(ctx *core.Context, port string, v any) error {
	sc, ok := v.(ScoredPayload)
	if !ok {
		return fmt.Errorf("happyState: unexpected payload %T", v)
	}
	ctx.Work(happyCost)
	h.totals[sc.State] += int64(math.Round(sc.Score * 100))
	return nil
}

// Final implements core.Finalizer.
func (h *happyState) Final(ctx *core.Context) error {
	states := make([]string, 0, len(h.totals))
	for s := range h.totals {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		if err := ctx.EmitDefault(StateScore{State: s, Score: float64(h.totals[s]) / 100}); err != nil {
			return err
		}
	}
	return nil
}

// managedHappyState is happyState on the managed state subsystem: per-state
// totals live in a keyed store (key = state, value = score hundredths via
// AddInt, atomic under every mapping), not in PE fields. The engine runs
// Final once per run; it sweeps the whole namespace, so the flush is correct
// regardless of how many instances or dynamic workers fed the store.
type managedHappyState struct {
	core.Base
}

func newManagedHappyState() core.PE {
	return &managedHappyState{Base: core.NewBase("happyState", core.In(), core.Out())}
}

// Process implements core.PE.
func (h *managedHappyState) Process(ctx *core.Context, port string, v any) error {
	sc, ok := v.(ScoredPayload)
	if !ok {
		return fmt.Errorf("happyState: unexpected payload %T", v)
	}
	ctx.Work(happyCost)
	_, err := ctx.State().AddInt(sc.State, int64(math.Round(sc.Score*100)))
	return err
}

// Final implements core.Finalizer.
func (h *managedHappyState) Final(ctx *core.Context) error {
	entries, err := state.SortedEntries(ctx.State())
	if err != nil {
		return err
	}
	for _, e := range entries {
		hundredths, err := strconv.ParseInt(e.Value, 10, 64)
		if err != nil {
			return fmt.Errorf("happyState: corrupt total for %s: %w", e.Key, err)
		}
		if err := ctx.EmitDefault(StateScore{State: e.Key, Score: float64(hundredths) / 100}); err != nil {
			return err
		}
	}
	return nil
}

// managedTop3 is top3Happiest on managed singleton state: one store entry
// per state score received, ranked in the single engine-invoked Final.
type managedTop3 struct {
	core.Base
	onTop func([]StateScore)
}

func newManagedTop3(onTop func([]StateScore)) core.PE {
	return &managedTop3{Base: core.NewBase("top3Happiest", core.In(), core.Out()), onTop: onTop}
}

// Process implements core.PE.
func (t *managedTop3) Process(ctx *core.Context, port string, v any) error {
	sc, ok := v.(StateScore)
	if !ok {
		return fmt.Errorf("top3Happiest: unexpected payload %T", v)
	}
	ctx.Work(topCost)
	return ctx.State().Put(sc.State, strconv.FormatFloat(sc.Score, 'g', -1, 64))
}

// Final implements core.Finalizer.
func (t *managedTop3) Final(ctx *core.Context) error {
	entries, err := state.SortedEntries(ctx.State())
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	scores := make([]StateScore, 0, len(entries))
	for _, e := range entries {
		f, err := strconv.ParseFloat(e.Value, 64)
		if err != nil {
			return fmt.Errorf("top3Happiest: corrupt score for %s: %w", e.Key, err)
		}
		scores = append(scores, StateScore{State: e.Key, Score: f})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Score != scores[j].Score {
			return scores[i].Score > scores[j].Score
		}
		return scores[i].State < scores[j].State
	})
	if len(scores) > 3 {
		scores = scores[:3]
	}
	if t.onTop != nil {
		t.onTop(scores)
	}
	return ctx.EmitDefault(scores)
}

// top3 keeps every state total and emits the top three at Final.
type top3 struct {
	core.Base
	scores []StateScore
	onTop  func([]StateScore)
}

func newTop3(onTop func([]StateScore)) core.PE {
	return &top3{Base: core.NewBase("top3Happiest", core.In(), core.Out()), onTop: onTop}
}

// Process implements core.PE.
func (t *top3) Process(ctx *core.Context, port string, v any) error {
	sc, ok := v.(StateScore)
	if !ok {
		return fmt.Errorf("top3Happiest: unexpected payload %T", v)
	}
	ctx.Work(topCost)
	t.scores = append(t.scores, sc)
	return nil
}

// Final implements core.Finalizer.
func (t *top3) Final(ctx *core.Context) error {
	if len(t.scores) == 0 {
		return nil // instances outside the global route hold no data
	}
	sort.Slice(t.scores, func(i, j int) bool {
		if t.scores[i].Score != t.scores[j].Score {
			return t.scores[i].Score > t.scores[j].Score
		}
		return t.scores[i].State < t.scores[j].State
	})
	top := t.scores
	if len(top) > 3 {
		top = top[:3]
	}
	out := append([]StateScore(nil), top...)
	if t.onTop != nil {
		t.onTop(out)
	}
	return ctx.EmitDefault(out)
}
