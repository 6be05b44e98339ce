package cpa

// Wire-exact engine state. The distributed attack fleet ships partial
// accumulators between processes; folding a decoded partial must execute
// the *identical* floating-point additions as folding the in-process
// clone it was serialized from, or the cluster's byte-identity contract
// collapses. JSON's decimal float round-trip is not trustworthy for that
// (and cannot carry NaN/Inf at all), so every float64 crosses the wire as
// its IEEE-754 bit pattern: scalars as uint64 fields, slices packed as
// base64 little-endian 8-byte words. Encode→decode is the identity on
// bits, proven by the round-trip property tests in state_test.go.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// packFloats encodes a float64 slice as base64 little-endian IEEE-754
// words — bit-exact, NaN/Inf safe, and ~40% smaller than decimal JSON.
func packFloats(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// PackFloats is the exported packFloats, for sibling packages shipping
// float64 planes (e.g. the robust-preprocessing plan) bit-exactly.
func PackFloats(v []float64) string { return packFloats(v) }

// UnpackFloats is the exported unpackFloats.
func UnpackFloats(s string, want int) ([]float64, error) { return unpackFloats(s, want) }

// unpackFloats decodes a packFloats string, validating the element count.
func unpackFloats(s string, want int) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("cpa: malformed packed floats: %w", err)
	}
	if len(buf) != 8*want {
		return nil, fmt.Errorf("cpa: packed floats hold %d bytes, want %d values", len(buf), want)
	}
	out := make([]float64, want)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// EngineState is the wire form of an Engine's accumulators. Scalar sums
// are IEEE-754 bit patterns; slices are packed (see packFloats).
type EngineState struct {
	D     int    `json:"d"`
	NHyp  int    `json:"nHyp"`
	SumT  uint64 `json:"sumT"`
	SumT2 uint64 `json:"sumT2"`
	SumH  string `json:"sumH"`
	SumH2 string `json:"sumH2"`
	SumHT string `json:"sumHT"`
}

// State snapshots the engine's accumulators bit-exactly.
func (e *Engine) State() EngineState {
	return EngineState{
		D:     e.d,
		NHyp:  len(e.sumH),
		SumT:  math.Float64bits(e.sumT),
		SumT2: math.Float64bits(e.sumT2),
		SumH:  packFloats(e.sumH),
		SumH2: packFloats(e.sumH2),
		SumHT: packFloats(e.sumHT),
	}
}

// EngineFromState rebuilds an engine carrying exactly the snapshotted
// sums; Merge-ing it is bit-identical to Merge-ing the original.
func EngineFromState(st EngineState) (*Engine, error) {
	if st.NHyp <= 0 || st.D < 0 {
		return nil, fmt.Errorf("cpa: engine state with nHyp=%d d=%d", st.NHyp, st.D)
	}
	sumH, err := unpackFloats(st.SumH, st.NHyp)
	if err != nil {
		return nil, err
	}
	sumH2, err := unpackFloats(st.SumH2, st.NHyp)
	if err != nil {
		return nil, err
	}
	sumHT, err := unpackFloats(st.SumHT, st.NHyp)
	if err != nil {
		return nil, err
	}
	return &Engine{
		d:     st.D,
		sumT:  math.Float64frombits(st.SumT),
		sumT2: math.Float64frombits(st.SumT2),
		sumH:  sumH,
		sumH2: sumH2,
		sumHT: sumHT,
	}, nil
}

// MultiEngineState is the wire form of a MultiEngine.
type MultiEngineState struct {
	D     int    `json:"d"`
	NHyp  int    `json:"nHyp"`
	NSamp int    `json:"nSamp"`
	SumT  string `json:"sumT"`
	SumT2 string `json:"sumT2"`
	SumH  string `json:"sumH"`
	SumH2 string `json:"sumH2"`
	SumHT string `json:"sumHT"`
}

// State snapshots the windowed engine's accumulators bit-exactly.
func (e *MultiEngine) State() MultiEngineState {
	return MultiEngineState{
		D:     e.d,
		NHyp:  e.nHyp,
		NSamp: e.nSamp,
		SumT:  packFloats(e.sumT),
		SumT2: packFloats(e.sumT2),
		SumH:  packFloats(e.sumH),
		SumH2: packFloats(e.sumH2),
		SumHT: packFloats(e.sumHT),
	}
}

// MultiEngineFromState rebuilds a windowed engine from its wire form.
func MultiEngineFromState(st MultiEngineState) (*MultiEngine, error) {
	if st.NHyp <= 0 || st.NSamp <= 0 || st.D < 0 {
		return nil, fmt.Errorf("cpa: multi-engine state with nHyp=%d nSamp=%d d=%d", st.NHyp, st.NSamp, st.D)
	}
	sumT, err := unpackFloats(st.SumT, st.NSamp)
	if err != nil {
		return nil, err
	}
	sumT2, err := unpackFloats(st.SumT2, st.NSamp)
	if err != nil {
		return nil, err
	}
	sumH, err := unpackFloats(st.SumH, st.NHyp)
	if err != nil {
		return nil, err
	}
	sumH2, err := unpackFloats(st.SumH2, st.NHyp)
	if err != nil {
		return nil, err
	}
	sumHT, err := unpackFloats(st.SumHT, st.NHyp*st.NSamp)
	if err != nil {
		return nil, err
	}
	return &MultiEngine{
		d: st.D, nHyp: st.NHyp, nSamp: st.NSamp,
		sumT: sumT, sumT2: sumT2, sumH: sumH, sumH2: sumH2, sumHT: sumHT,
	}, nil
}

// MatrixEngineState is the wire form of a MatrixEngine.
type MatrixEngineState struct {
	D     int    `json:"d"`
	NHyp  int    `json:"nHyp"`
	NSamp int    `json:"nSamp"`
	SumT  string `json:"sumT"`
	SumT2 string `json:"sumT2"`
	SumH  string `json:"sumH"`
	SumH2 string `json:"sumH2"`
	SumHT string `json:"sumHT"`
}

// NHyp returns the hypothesis count (for shape validation by decoders).
func (e *MatrixEngine) NHyp() int { return e.nHyp }

// NSamp returns the per-hypothesis sample count.
func (e *MatrixEngine) NSamp() int { return e.nSamp }

// State snapshots the per-sample-prediction engine's accumulators
// bit-exactly.
func (e *MatrixEngine) State() MatrixEngineState {
	return MatrixEngineState{
		D:     e.d,
		NHyp:  e.nHyp,
		NSamp: e.nSamp,
		SumT:  packFloats(e.sumT),
		SumT2: packFloats(e.sumT2),
		SumH:  packFloats(e.sumH),
		SumH2: packFloats(e.sumH2),
		SumHT: packFloats(e.sumHT),
	}
}

// MatrixEngineFromState rebuilds a per-sample-prediction engine from its
// wire form.
func MatrixEngineFromState(st MatrixEngineState) (*MatrixEngine, error) {
	if st.NHyp <= 0 || st.NSamp <= 0 || st.D < 0 {
		return nil, fmt.Errorf("cpa: matrix-engine state with nHyp=%d nSamp=%d d=%d", st.NHyp, st.NSamp, st.D)
	}
	sumT, err := unpackFloats(st.SumT, st.NSamp)
	if err != nil {
		return nil, err
	}
	sumT2, err := unpackFloats(st.SumT2, st.NSamp)
	if err != nil {
		return nil, err
	}
	sumH, err := unpackFloats(st.SumH, st.NHyp*st.NSamp)
	if err != nil {
		return nil, err
	}
	sumH2, err := unpackFloats(st.SumH2, st.NHyp*st.NSamp)
	if err != nil {
		return nil, err
	}
	sumHT, err := unpackFloats(st.SumHT, st.NHyp*st.NSamp)
	if err != nil {
		return nil, err
	}
	return &MatrixEngine{
		d: st.D, nHyp: st.NHyp, nSamp: st.NSamp,
		sumT: sumT, sumT2: sumT2, sumH: sumH, sumH2: sumH2, sumHT: sumHT,
	}, nil
}

// RunningStatsState is the wire form of a RunningStats accumulator.
type RunningStatsState struct {
	N    int    `json:"n"`
	Mean uint64 `json:"mean"`
	M2   uint64 `json:"m2"`
}

// State snapshots the accumulator bit-exactly.
func (s *RunningStats) State() RunningStatsState {
	return RunningStatsState{N: s.n, Mean: math.Float64bits(s.mean), M2: math.Float64bits(s.m2)}
}

// RunningStatsFromState rebuilds an accumulator from its wire form.
func RunningStatsFromState(st RunningStatsState) (RunningStats, error) {
	if st.N < 0 {
		return RunningStats{}, fmt.Errorf("cpa: running-stats state with n=%d", st.N)
	}
	return RunningStats{n: st.N, mean: math.Float64frombits(st.Mean), m2: math.Float64frombits(st.M2)}, nil
}
