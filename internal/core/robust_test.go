package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"falcondown/internal/emleak"
	"falcondown/internal/tracestore"
)

// dirtyCorpus builds a campaign through a FlakyDevice that saturates 5%
// of the traces and desyncs another ~5% — the misbehavior mix of the
// acceptance scenario.
func dirtyCorpus(t *testing.T, dev *emleak.Device, count int) []emleak.Observation {
	t.Helper()
	fl := emleak.NewFlakyDevice(dev, emleak.Distortion{
		Seed:        77,
		GlitchProb:  0.05,
		DesyncProb:  0.05,
		DesyncShift: 2,
	}, nil)
	obs := make([]emleak.Observation, count)
	for i := range obs {
		o, err := fl.Measure(context.Background(), 3, uint64(i))
		if err != nil {
			t.Fatalf("measure %d: %v", i, err)
		}
		obs[i] = o
	}
	return obs
}

func TestRobustConfigEnabled(t *testing.T) {
	if (RobustConfig{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for _, rc := range []RobustConfig{{TrimSigmas: 3}, {ResyncShift: 2}, {Winsorize: 4}} {
		if !rc.Enabled() {
			t.Fatalf("%+v should be enabled", rc)
		}
	}
}

// The contrast at the heart of the issue: a corpus with 5% saturated and
// 5% desynced traces pushes the plain CPA off every value, while the
// robust preprocessing (energy trim + resync + winsorize) recovers all
// of them exactly.
func TestRobustRecoversDirtyCorpus(t *testing.T) {
	dev, priv, _ := deviceFor(t, 8, 1.5, 1)
	obs := dirtyCorpus(t, dev, 1200)
	src := tracestore.NewSliceSource(8, obs)
	secret := priv.FFTOfF()

	exact := func(cfg Config) int {
		t.Helper()
		out, _, err := AttackFFTfFrom(src, cfg)
		if err != nil {
			t.Fatalf("attack: %v", err)
		}
		match := 0
		for k := range out {
			if out[k].Re == secret[k].Re {
				match++
			}
			if out[k].Im == secret[k].Im {
				match++
			}
		}
		return match
	}

	plain := exact(Config{})
	robust := exact(Config{Robust: RobustConfig{TrimSigmas: 4, ResyncShift: 3, Winsorize: 4}})
	if plain >= 8 {
		t.Fatalf("plain CPA recovered %d/8 values on the dirty corpus; the contrast premise is gone", plain)
	}
	if robust != 8 {
		t.Fatalf("robust CPA recovered %d/8 values, want 8", robust)
	}
}

// The preprocessing plan is pinned: every pass over the transformed
// source yields identical bytes, and the energy screen actually drops
// the saturated traces.
func TestRobustSourceDeterministicPasses(t *testing.T) {
	dev, _, _ := deviceFor(t, 8, 1.5, 1)
	obs := dirtyCorpus(t, dev, 300)
	src := tracestore.NewSliceSource(8, obs)
	rs, err := prepareRobust(src, RobustConfig{TrimSigmas: 4, ResyncShift: 3, Winsorize: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rob := rs.(*robustSource)
	if rob.Trimmed() == 0 {
		t.Fatal("energy screen trimmed nothing despite 5% saturated traces")
	}
	if rs.Count() != 300-rob.Trimmed() {
		t.Fatalf("Count = %d, want %d", rs.Count(), 300-rob.Trimmed())
	}
	pass1, err := tracestore.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	pass2, err := tracestore.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pass1, pass2) {
		t.Fatal("two passes over the robust source differ")
	}
	// And rebuilding the plan from scratch (what a resumed attack does)
	// yields the same bytes again.
	rs2, err := prepareRobust(src, RobustConfig{TrimSigmas: 4, ResyncShift: 3, Winsorize: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pass3, err := tracestore.ReadAll(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pass1, pass3) {
		t.Fatal("rebuilt preprocessing plan produced different bytes")
	}
}

// Robust is part of Config for checkpoint binding: a sidecar written
// under one preprocessing setup must refuse to resume under another.
func TestRobustCheckpointBinding(t *testing.T) {
	cfgA := Config{Robust: RobustConfig{Winsorize: 4}}.withDefaults()
	cfgB := Config{Robust: RobustConfig{Winsorize: 5}}.withDefaults()
	ck := &Checkpoint{Format: checkpointFormat, N: 8, Count: 100, Config: cfgA, Stage: StageExponents, Mags: make([]MagCheckpoint, 8)}
	if err := ck.matches(8, 100, cfgA); err != nil {
		t.Fatalf("same config should match: %v", err)
	}
	if err := ck.matches(8, 100, cfgB); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different Robust config must mismatch, got %v", err)
	}
}

// insertionMedian is medianOf as it was written, with an insertion sort
// by <: the reference for NaN positions and the order of −0 and +0.
func insertionMedian(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func TestMedianOfMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	pool := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 3000; trial++ {
		vals := make([]float64, 1+r.Intn(200))
		for i := range vals {
			if r.Intn(3) == 0 {
				vals[i] = r.NormFloat64()
			} else {
				vals[i] = pool[r.Intn(1+trial%len(pool))]
			}
		}
		got, want := medianOf(vals), insertionMedian(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: medianOf = %v (%#x), insertion sort gives %v (%#x) for %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), vals)
		}
	}
}
