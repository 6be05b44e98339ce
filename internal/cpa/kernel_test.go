package cpa

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The shard-fold battery proves the contract of FoldTraces and FoldHyp:
// a shard partial built in registers (integer Σh and Σh², a float64 Σh·t
// started at +0.0 and taken in trace order) folds into an engine with the
// very adds Merge applies to a partial engine fed by Update. The
// comparisons are on IEEE-754 bits throughout; "close" is a bug here.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json from the current kernel output")

// noisySeries generates non-integer traces against integer predictions.
func noisySeries(r *rand.Rand, nHyp, d int) (h [][]float64, t []float64) {
	h = make([][]float64, d)
	t = make([]float64, d)
	for i := range h {
		h[i] = make([]float64, nHyp)
		for j := range h[i] {
			h[i][j] = float64(r.Intn(65))
		}
		t[i] = 20*r.NormFloat64() + float64(r.Intn(57))
	}
	return h, t
}

// foldRows folds one shard the way the attack's fused kernels do: the
// trace sums once, then per hypothesis a register pass over the shard's
// traces. h holds integer predictions.
func foldRows(e *Engine, h [][]float64, ts []float64) {
	e.FoldTraces(ts)
	for i := 0; i < e.NHyp(); i++ {
		var sumH, sumH2 int
		var sumHT float64
		for tr, t := range ts {
			v := int(h[tr][i])
			sumH += v
			sumH2 += v * v
			sumHT += float64(v) * t
		}
		e.FoldHyp(i, sumH, sumH2, sumHT)
	}
}

// updatePartial is the reference shard partial: a zero-state engine fed
// trace by trace through Update.
func updatePartial(nHyp int, h [][]float64, ts []float64) *Engine {
	p := NewEngine(nHyp)
	for tr, t := range ts {
		p.Update(h[tr], t)
	}
	return p
}

func stateBytes(t *testing.T, e *Engine) string {
	t.Helper()
	b, err := json.Marshal(e.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// awkwardSample returns a sample value for trace i: mostly noise, with
// −0.0, negatives and large magnitudes sprinkled in; with nonFinite,
// also ±Inf, NaN and values whose squares overflow.
func awkwardSample(r *rand.Rand, i int, nonFinite bool) float64 {
	switch {
	case i%7 == 3:
		return math.Copysign(0, -1)
	case i%11 == 5:
		return -1e100
	case i%13 == 6:
		return 1e100
	case nonFinite && i%17 == 8:
		return math.Inf(1)
	case nonFinite && i%19 == 9:
		return math.Inf(-1)
	case nonFinite && i%23 == 10:
		return math.NaN()
	case nonFinite && i%29 == 11:
		return -1e300
	}
	return 20*r.NormFloat64() - 5
}

// intRows returns d rows of nHyp random Hamming weights.
func intRows(r *rand.Rand, nHyp, d int) [][]float64 {
	h := make([][]float64, d)
	for i := range h {
		h[i] = make([]float64, nHyp)
		for j := range h[i] {
			h[i][j] = float64(r.Intn(65))
		}
	}
	return h
}

func TestMergeAcrossKernels(t *testing.T) {
	// Every shard length from 1 to 64 after a full first shard: folding a
	// shard of finite samples in registers must land on the same bits as
	// merging an Update-fed partial, whether the fold goes into the live
	// engine or into a zero-state partial merged afterwards — also when
	// the first shard, merged through Update as the fused kernels route
	// such shards, left the sums at ±Inf or NaN.
	r := rand.New(rand.NewSource(66))
	const nHyp = 5
	for _, nonFinite := range []bool{false, true} {
		for n := 1; n <= 64; n++ {
			d := 64 + n
			h := intRows(r, nHyp, d)
			ts := make([]float64, d)
			for i := range ts {
				ts[i] = awkwardSample(r, i, nonFinite && i < 64)
			}
			ref := NewEngine(nHyp)
			direct := NewEngine(nHyp)
			viaPartial := NewEngine(nHyp)
			for k, s := range [][2]int{{0, 64}, {64, d}} {
				hs, shard := h[s[0]:s[1]], ts[s[0]:s[1]]
				ref.Merge(updatePartial(nHyp, hs, shard))
				if k == 0 && nonFinite {
					direct.Merge(updatePartial(nHyp, hs, shard))
					viaPartial.Merge(updatePartial(nHyp, hs, shard))
					continue
				}
				foldRows(direct, hs, shard)
				p := NewEngine(nHyp)
				foldRows(p, hs, shard)
				if stateBytes(t, p) != stateBytes(t, updatePartial(nHyp, hs, shard)) {
					t.Fatalf("nonFinite=%v n=%d: register partial differs from the Update partial", nonFinite, n)
				}
				viaPartial.Merge(p)
			}
			want := stateBytes(t, ref)
			if got := stateBytes(t, direct); got != want {
				t.Fatalf("nonFinite=%v n=%d: in-place fold differs from Merge of an Update partial", nonFinite, n)
			}
			if got := stateBytes(t, viaPartial); got != want {
				t.Fatalf("nonFinite=%v n=%d: merged register partial differs from Merge of an Update partial", nonFinite, n)
			}
		}
	}
}

func TestMergeDoesNotMutateRightSide(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	const nHyp, d = 5, 100
	h, tr := intSeries(r, nHyp, d)
	left, right := updatePartial(nHyp, h, tr), updatePartial(nHyp, h, tr)
	before := stateBytes(t, right)
	left.Merge(right)
	if stateBytes(t, right) != before {
		t.Fatal("Merge mutated its right-hand side")
	}
}

func TestResetRestoresZeroState(t *testing.T) {
	// A recycled partial must carry nothing of the shard it last held.
	r := rand.New(rand.NewSource(68))
	h, tr := noisySeries(r, 9, 40)
	e := updatePartial(9, h, tr)
	e.Reset()
	if stateBytes(t, e) != stateBytes(t, NewEngine(9)) {
		t.Fatal("Engine.Reset left accumulator state behind")
	}
	m := NewMatrixEngine(3, 4)
	for i := 0; i < 10; i++ {
		m.Update([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, float64(i)}, []float64{0.5, -1, 2, float64(i)})
	}
	m.Reset()
	got, _ := json.Marshal(m.State())
	want, _ := json.Marshal(NewMatrixEngine(3, 4).State())
	if string(got) != string(want) {
		t.Fatal("MatrixEngine.Reset left accumulator state behind")
	}
}

// kernelGolden is the committed regression fixture: correlations on a
// pinned pseudo-random corpus, as IEEE-754 bit patterns. It freezes the
// exact arithmetic of the accumulation — an accidental reassociation
// (e.g. a "harmless" loop-order tweak) changes these bytes and fails the
// test, even if every differential test still self-agrees.
type kernelGolden struct {
	NHyp   int    `json:"nHyp"`
	Traces int    `json:"traces"`
	Corr   string `json:"corr"` // packed float64 bits, see packFloats
}

// goldenCorr runs the pinned corpus through the shard fold. The fixture
// holds per-trace Update bits, and the fold reproduces them exactly when
// the first shard is folded into the zero engine and every later shard
// holds one trace: a register started at +0.0 and folded into +0.0 is
// the Update sum itself, and a one-trace partial adds exactly h·t. So the
// first 64 traces pin the in-register chain and the rest pin the fold.
func goldenCorr() []float64 {
	r := rand.New(rand.NewSource(69))
	const nHyp, d = 129, 333
	h, tr := noisySeries(r, nHyp, d)
	eng := NewEngine(nHyp)
	foldRows(eng, h[:64], tr[:64])
	for i := 64; i < d; i++ {
		foldRows(eng, h[i:i+1], tr[i:i+1])
	}
	return eng.Corr()
}

func TestKernelGoldenRegression(t *testing.T) {
	path := filepath.Join("testdata", "kernel_golden.json")
	corr := goldenCorr()
	if *updateGolden {
		g := kernelGolden{NHyp: len(corr), Traces: 333, Corr: packFloats(corr)}
		raw, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	var g kernelGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	want, err := unpackFloats(g.Corr, g.NHyp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(corr, want) {
		t.Fatal("shard fold drifted from the committed golden bits")
	}
	// The fixture is the per-trace reference too.
	r := rand.New(rand.NewSource(69))
	h, tr := noisySeries(r, g.NHyp, g.Traces)
	if !sameBits(updatePartial(g.NHyp, h, tr).Corr(), want) {
		t.Fatal("per-trace Update drifted from the committed golden bits")
	}
}
