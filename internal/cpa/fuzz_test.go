package cpa

import (
	"encoding/json"
	"testing"
)

// FuzzMatrixEngineState feeds mutated wire states through the matrix
// engine's decoder and requires: no panics, and every state that decodes
// cleanly round-trips bit-for-bit through State() and survives a
// self-merge. The fleet folds decoded partials from untrusted nodes, so
// a corrupt or truncated state must be a typed rejection, never a crash
// or a silent misfold.
func FuzzMatrixEngineState(f *testing.F) {
	// Seed 1: a genuine partial from a small accumulation.
	eng := NewMatrixEngine(3, 4)
	h := make([]float64, 12)
	tr := make([]float64, 4)
	for i := 0; i < 20; i++ {
		for j := range h {
			h[j] = float64((i*7 + j) % 65)
		}
		for j := range tr {
			tr[j] = float64((i*13 + j) % 57)
		}
		eng.Update(h, tr)
	}
	if raw, err := json.Marshal(eng.State()); err == nil {
		f.Add(raw)
	}
	// Seed 2: an empty engine's state.
	if raw, err := json.Marshal(NewMatrixEngine(1, 1).State()); err == nil {
		f.Add(raw)
	}
	// Seeds 3+: structurally broken states.
	f.Add([]byte(`{"d":-1,"nHyp":3,"nSamp":4}`))
	f.Add([]byte(`{"d":5,"nHyp":1000000,"nSamp":1000000,"sumT":"AAAA"}`))
	f.Add([]byte(`{"d":2,"nHyp":2,"nSamp":2,"sumT":"not base64!!","sumT2":"","sumH":"","sumH2":"","sumHT":""}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st MatrixEngineState
		if err := json.Unmarshal(data, &st); err != nil {
			return // malformed JSON is the codec layer's problem
		}
		// Oversized shape claims would make the decoder allocate
		// nHyp*nSamp*3 float64s before length validation catches the short
		// payload; cap the claim like the wire layer's frame cap does.
		if st.NHyp > 1<<16 || st.NSamp > 1<<16 {
			return
		}
		dec, err := MatrixEngineFromState(st)
		if err != nil {
			return // typed rejection is the expected path for corrupt states
		}
		// A state that decodes must round-trip bit-for-bit...
		back, _ := json.Marshal(dec.State())
		rt, err := MatrixEngineFromState(mustMatrixState(t, back))
		if err != nil {
			t.Fatalf("decoded state failed to re-decode: %v", err)
		}
		if !sameBits(dec.MeanScore(), rt.MeanScore()) {
			t.Fatal("state round-trip changed accumulator bits")
		}
		// ...and merge into a fresh engine of its shape without panicking.
		fresh := NewMatrixEngine(dec.NHyp(), dec.NSamp())
		fresh.Merge(dec)
	})
}

func mustMatrixState(t *testing.T, raw []byte) MatrixEngineState {
	t.Helper()
	var st MatrixEngineState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("re-marshal of a decoded state is unparseable: %v", err)
	}
	return st
}
