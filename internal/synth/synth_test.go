package synth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBetaMeanAndRange(t *testing.T) {
	rng := NewRand(1)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := Beta(rng, 2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("beta sample out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	// Beta(2,5) has mean 2/7 ≈ 0.2857.
	if math.Abs(mean-2.0/7.0) > 0.01 {
		t.Errorf("beta(2,5) mean %.4f, want ≈ %.4f", mean, 2.0/7.0)
	}
}

func TestGammaMean(t *testing.T) {
	rng := NewRand(2)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += Gamma(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Errorf("gamma(%v) mean %.3f, want ≈ %.3f", shape, mean, shape)
		}
	}
}

func TestGammaDegenerate(t *testing.T) {
	rng := NewRand(3)
	if Gamma(rng, 0) != 0 || Gamma(rng, -1) != 0 {
		t.Error("non-positive shape should sample 0")
	}
}

func TestGalaxyCatalogDeterministicAndBounded(t *testing.T) {
	a := GalaxyCatalog(11, 100)
	b := GalaxyCatalog(11, 100)
	if len(a) != 100 {
		t.Fatalf("len=%d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("catalog not deterministic")
		}
		if a[i].RA < 0 || a[i].RA >= 360 || a[i].Dec < -90 || a[i].Dec > 90 {
			t.Errorf("galaxy %d coordinates out of range: %+v", i, a[i])
		}
		if a[i].LogR25 < 0 {
			t.Errorf("galaxy %d negative logR25", i)
		}
	}
	if GalaxyCatalog(12, 100)[0] == a[0] {
		t.Error("different seeds should differ")
	}
}

func TestMakeVOTableHasAllColumns(t *testing.T) {
	g := GalaxyCatalog(1, 1)[0]
	rows := MakeVOTable(g, 3, 5)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, col := range VOTableColumns {
		if _, ok := rows[0].Columns[col]; !ok {
			t.Errorf("missing column %q", col)
		}
	}
	if rows[0].Columns["t"] != g.MorphType || rows[0].Columns["logr25"] != g.LogR25 {
		t.Error("extinction columns must carry the galaxy values")
	}
}

func TestInternalExtinction(t *testing.T) {
	if got := InternalExtinction(-3, 0.5); got != 0 {
		t.Errorf("early types have no internal extinction, got %v", got)
	}
	if got := InternalExtinction(7, 0.4); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("late type: got %v want 0.6", got)
	}
	// Monotone in logR25 for fixed late type.
	if InternalExtinction(7, 0.2) >= InternalExtinction(7, 0.8) {
		t.Error("extinction should grow with axis ratio")
	}
}

func TestInternalExtinctionNonNegativeProperty(t *testing.T) {
	f := func(tRaw, rRaw uint16) bool {
		morph := float64(tRaw%120)/10 - 1 // -1.0 .. 10.9
		logr := float64(rRaw%900) / 1000  // 0 .. 0.9
		return InternalExtinction(morph, logr) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeTraceAndTransforms(t *testing.T) {
	tr := MakeTrace("ST001", 2000, 42)
	if len(tr.Samples) != 2000 || tr.Station != "ST001" {
		t.Fatalf("trace: %d samples", len(tr.Samples))
	}
	// Demean drives the mean to ~0.
	demeaned := Demean(append([]float64(nil), tr.Samples...))
	if m := Mean(demeaned); math.Abs(m) > 1e-9 {
		t.Errorf("mean after demean: %v", m)
	}
	// Detrend removes a pure linear ramp entirely.
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = 3 + 0.5*float64(i)
	}
	Detrend(ramp)
	for i, v := range ramp {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("detrended ramp[%d] = %v", i, v)
		}
	}
	// Decimate keeps ceil(n/factor) samples.
	if got := len(Decimate(make([]float64, 10), 4)); got != 3 {
		t.Errorf("decimate len=%d want 3", got)
	}
	if got := len(Decimate(make([]float64, 10), 1)); got != 10 {
		t.Errorf("decimate factor 1 should be identity, len=%d", got)
	}
}

func TestOneBitNormalize(t *testing.T) {
	out := OneBitNormalize([]float64{-2.5, 0, 3.7})
	want := []float64{-1, 0, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("onebit[%d]=%v want %v", i, out[i], want[i])
		}
	}
}

func TestWhitenBoundsEnergy(t *testing.T) {
	tr := MakeTrace("ST000", 1000, 9)
	w := Whiten(append([]float64(nil), tr.Samples...), 50)
	for i, v := range w {
		if math.Abs(v) > 25 {
			t.Fatalf("whitened sample %d too large: %v", i, v)
		}
	}
}

func TestLowPassReducesVariance(t *testing.T) {
	tr := MakeTrace("ST000", 2000, 13)
	raw := append([]float64(nil), tr.Samples...)
	Demean(raw)
	filtered := LowPassFIR(append([]float64(nil), raw...), 20)
	varOf := func(x []float64) float64 {
		m := Mean(x)
		var s float64
		for _, v := range x {
			s += (v - m) * (v - m)
		}
		return s / float64(len(x))
	}
	if varOf(filtered) >= varOf(raw) {
		t.Error("low-pass should reduce variance of a noisy signal")
	}
}

func TestCrossCorrelateSelfPeaksAtZeroLag(t *testing.T) {
	tr := MakeTrace("ST000", 500, 17)
	x := Demean(append([]float64(nil), tr.Samples...))
	cc := CrossCorrelate(x, x, 10)
	peak := cc[10] // zero lag
	for i, v := range cc {
		if i != 10 && v > peak {
			t.Fatalf("autocorrelation peak not at zero lag: cc[%d]=%v > %v", i, v, peak)
		}
	}
}

func TestArticlesDeterministic(t *testing.T) {
	a := Articles(3, 50)
	b := Articles(3, 50)
	for i := range a {
		if a[i].Body != b[i].Body || a[i].State != b[i].State {
			t.Fatal("articles not deterministic")
		}
	}
	states := map[string]bool{}
	for _, art := range a {
		states[art.State] = true
		if len(art.Body) == 0 {
			t.Fatal("empty body")
		}
	}
	if len(states) < 5 {
		t.Errorf("only %d distinct states in 50 articles", len(states))
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Happy days, HAPPY nights! 42 joy.")
	want := []string{"happy", "days", "happy", "nights", "joy"}
	if len(got) != len(want) {
		t.Fatalf("tokens: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d]=%q want %q", i, got[i], want[i])
		}
	}
}

func TestScoreAFINNAndSWN3Agreement(t *testing.T) {
	pos := "happy joy wonderful triumph love"
	neg := "terrible disaster hate awful grief"
	if ScoreAFINN(pos) <= 0 {
		t.Error("positive text should score > 0 on AFINN")
	}
	if ScoreAFINN(neg) >= 0 {
		t.Error("negative text should score < 0 on AFINN")
	}
	if ScoreSWN3(Tokenize(pos)) <= 0 {
		t.Error("positive text should score > 0 on SWN3")
	}
	if ScoreSWN3(Tokenize(neg)) >= 0 {
		t.Error("negative text should score < 0 on SWN3")
	}
}

func TestSWN3CoversAFINN(t *testing.T) {
	for w := range AFINN {
		e, ok := SWN3[w]
		if !ok {
			t.Fatalf("SWN3 missing %q", w)
		}
		if e.Pos < 0 || e.Pos > 1 || e.Neg < 0 || e.Neg > 1 {
			t.Fatalf("SWN3[%q] out of range: %+v", w, e)
		}
	}
}

func TestSortStrings(t *testing.T) {
	ss := []string{"pear", "apple", "fig"}
	sortStrings(ss)
	if ss[0] != "apple" || ss[1] != "fig" || ss[2] != "pear" {
		t.Errorf("sorted: %v", ss)
	}
}

func TestStateBiasStableAndBounded(t *testing.T) {
	for _, s := range USStates {
		b := stateBias(s)
		if b < 0 || b > 0.13 {
			t.Errorf("bias(%s)=%v out of range", s, b)
		}
		if b != stateBias(s) {
			t.Errorf("bias(%s) not stable", s)
		}
	}
}

func TestStationsNames(t *testing.T) {
	st := Stations(3)
	if len(st) != 3 || st[0] != "ST000" || st[2] != "ST002" {
		t.Errorf("stations: %v", st)
	}
}
