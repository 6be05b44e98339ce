package cpa

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"falcondown/internal/rng"
)

// The cluster's byte-identity contract hinges on encode→decode being the
// identity on accumulator bits. These tests fill engines with awkward
// values (denormals, huge magnitudes, negative zero, values that do not
// round-trip through short decimal strings) and demand exact equality
// after a JSON round trip of the wire state.

func awkwardFloats(r *rng.Xoshiro, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), 1e-310, -2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3.0, math.Pi * 1e17,
	}
	out := make([]float64, n)
	for i := range out {
		if i < len(specials) {
			out[i] = specials[i]
		} else {
			out[i] = math.Float64frombits(r.Uint64())
			if math.IsNaN(out[i]) {
				out[i] = r.Float64()
			}
		}
	}
	return out
}

func jsonRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStateRoundTripExact(t *testing.T) {
	r := rng.New(1001)
	e := NewEngine(17)
	h := make([]float64, 17)
	for trace := 0; trace < 40; trace++ {
		copy(h, awkwardFloats(r, 17))
		e.Update(h, r.Float64()*1e6-5e5)
	}
	var st EngineState
	jsonRoundTrip(t, e.State(), &st)
	got, err := EngineFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	// Compare wire states, not structs: DeepEqual uses == on float64, and
	// NaN != NaN, but the accumulators legitimately hold NaN here (the
	// awkward inputs drive Inf-Inf). Bit patterns are what must match.
	if !reflect.DeepEqual(e.State(), got.State()) {
		t.Fatal("engine state round trip is not the identity")
	}

	// Folding the decoded partial must be bit-identical to folding the
	// original.
	a, b := NewEngine(17), NewEngine(17)
	a.Merge(e)
	b.Merge(got)
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("merge of decoded engine differs from merge of original")
	}
}

func TestEngineStateRejectsCorruptShapes(t *testing.T) {
	e := NewEngine(4)
	e.Update([]float64{1, 2, 3, 4}, 0.5)
	st := e.State()

	bad := st
	bad.NHyp = 5 // packed slices now disagree with the declared shape
	if _, err := EngineFromState(bad); err == nil {
		t.Fatal("shape-inconsistent state decoded without error")
	}
	bad = st
	bad.SumH = "!!not-base64!!"
	if _, err := EngineFromState(bad); err == nil {
		t.Fatal("malformed base64 decoded without error")
	}
	bad = st
	bad.NHyp = 0
	if _, err := EngineFromState(bad); err == nil {
		t.Fatal("zero-hypothesis state decoded without error")
	}
}

func TestMatrixEngineStateRoundTripExact(t *testing.T) {
	r := rng.New(1003)
	e := NewMatrixEngine(4, 7)
	for trace := 0; trace < 30; trace++ {
		e.Update(awkwardFloats(r, 4*7), awkwardFloats(r, 7))
	}
	var st MatrixEngineState
	jsonRoundTrip(t, e.State(), &st)
	got, err := MatrixEngineFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.State(), got.State()) {
		t.Fatal("matrix-engine state round trip is not the identity")
	}

	a, b := NewMatrixEngine(4, 7), NewMatrixEngine(4, 7)
	a.Merge(e)
	b.Merge(got)
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("merge of decoded matrix engine differs from merge of original")
	}
}

func TestRunningStatsStateRoundTripExact(t *testing.T) {
	r := rng.New(1004)
	var s RunningStats
	for _, v := range awkwardFloats(r, 64) {
		if math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			continue // keep the accumulator finite; Inf-Inf would poison m2
		}
		s.Add(v)
	}
	var st RunningStatsState
	jsonRoundTrip(t, s.State(), &st)
	got, err := RunningStatsFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if s != got {
		t.Fatal("running-stats state round trip is not the identity")
	}

	// Chan combination over the decoded partial must match the original.
	var a, b RunningStats
	a.Add(1.5)
	b.Add(1.5)
	a.Merge(s)
	b.Merge(got)
	if a != b {
		t.Fatal("merge of decoded running stats differs from merge of original")
	}
}
