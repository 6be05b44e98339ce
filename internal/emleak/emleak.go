// Package emleak models the measurement side of the attack: a victim
// device executing FALCON's floating-point FFT multiplication while an
// electromagnetic probe captures its switching activity.
//
// The paper measured an ARM-Cortex-M4 with a near-field probe and a
// PicoScope; this package substitutes a synthetic channel built from the
// same physical model the paper's analysis assumes (Brier et al. CPA):
// every micro-operation of the emulated datapath latches a value whose
// Hamming weight (or Hamming distance against the previous register
// content) couples linearly into the probe, plus additive Gaussian noise.
// DESIGN.md records this substitution and why it preserves the attack's
// statistics.
package emleak

import (
	"fmt"
	"math/bits"

	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/rng"
)

// LeakageModel converts a latched intermediate value into nominal leakage.
type LeakageModel interface {
	// Leak returns the noiseless leakage of writing cur over prev.
	Leak(prev, cur uint64) float64
	// Name identifies the model in reports.
	Name() string
}

// HammingWeight is the paper's model: leakage proportional to the number
// of set bits of the latched value.
type HammingWeight struct{}

// Leak returns popcount(cur).
func (HammingWeight) Leak(_, cur uint64) float64 { return float64(bits.OnesCount64(cur)) }

// Name implements LeakageModel.
func (HammingWeight) Name() string { return "hamming-weight" }

// HammingDistance models bus/register overwrite leakage.
type HammingDistance struct{}

// Leak returns popcount(prev XOR cur).
func (HammingDistance) Leak(prev, cur uint64) float64 {
	return float64(bits.OnesCount64(prev ^ cur))
}

// Name implements LeakageModel.
func (HammingDistance) Name() string { return "hamming-distance" }

// Identity leaks the low byte's value directly (a strong, idealized model
// used in ablations).
type Identity struct{}

// Leak returns the low byte of cur.
func (Identity) Leak(_, cur uint64) float64 { return float64(cur & 0xFF) }

// Name implements LeakageModel.
func (Identity) Name() string { return "identity-low-byte" }

// Probe is the acquisition channel: linear gain plus white Gaussian noise,
// the standard CPA measurement model.
type Probe struct {
	Gain       float64
	NoiseSigma float64
}

// DefaultProbe mirrors the calibration described in DESIGN.md: unit gain
// with a noise level that lands the sign-bit attack near the paper's ~9k
// traces.
func DefaultProbe() Probe { return Probe{Gain: 1, NoiseSigma: 8} }

// Layout of one traced complex coefficient product. fft.MulTraced performs
// four real multiplications (11 recorded micro-ops each) followed by one
// subtraction and one addition (6 micro-ops each).
const (
	OpsPerMul       = 11
	MulsPerCoeff    = 4
	OpsPerAdd       = 6
	SamplesPerCoeff = MulsPerCoeff*OpsPerMul + 2*OpsPerAdd // 56
)

// Real-multiplication slots within a coefficient window, by operand roles
// (known operand c = a+bi, secret operand f = x+yi).
const (
	MulReRe = 0 // a·x: known Re × secret Re
	MulImIm = 1 // b·y: known Im × secret Im
	MulReIm = 2 // a·y: known Re × secret Im
	MulImRe = 3 // b·x: known Im × secret Re
)

// SampleIndex returns the trace sample index of micro-op slot op (0..10)
// of multiplication mul (0..3) of coefficient coeff.
func SampleIndex(coeff, mul, op int) int {
	return coeff*SamplesPerCoeff + mul*OpsPerMul + op
}

// MulOpSample maps an fpr multiplication micro-op tag to its slot index.
func MulOpSample(op fpr.Op) int {
	if op > fpr.OpMulResult {
		panic(fmt.Sprintf("emleak: %v is not a multiplication micro-op", op))
	}
	return int(op)
}

// Trace is one captured measurement.
type Trace struct {
	Samples []float64
}

// Observation couples the adversary-known data of one measurement with the
// captured trace: the FFT of the hashed message and the EM samples.
type Observation struct {
	CFFT  []fft.Cplx
	Trace Trace
}

// Device executes the targeted computation FFT(c)⊙FFT(f) and emits
// synthetic EM traces.
type Device struct {
	secret []fft.Cplx // FFT(f): the value under attack
	n      int
	model  LeakageModel
	probe  Probe
	noise  *rng.Xoshiro

	// Shuffle enables the coefficient-shuffling countermeasure of the
	// paper's §V.B discussion: the processing order of the n/2 coefficient
	// products is randomly permuted per execution, so a fixed trace window
	// no longer aligns with a fixed coefficient.
	Shuffle bool

	// ExponentBlind scales the hashed-message operand by a fresh random
	// power of two per execution (and unscales the result outside the
	// attacked window). Powers of two only touch the exponent field, so
	// this protects the exponent adder while leaving the mantissa datapath
	// fully exposed — a deliberately partial countermeasure used in the
	// ablation study.
	ExponentBlind bool

	// MultBlind scales the hashed-message operand by a fresh uniformly
	// random significand in [1, 2) per execution (multiplicative masking
	// of the known operand). The adversary's predictions for every
	// mantissa partial product then decorrelate.
	MultBlind bool
}

// NewDevice builds a victim around the secret FFT(f) vector.
func NewDevice(secretFFT []fft.Cplx, model LeakageModel, probe Probe, seed uint64) *Device {
	return &Device{
		secret: append([]fft.Cplx(nil), secretFFT...),
		n:      2 * len(secretFFT),
		model:  model,
		probe:  probe,
		noise:  rng.New(seed),
	}
}

// Clone returns an independent device with the same secret, leakage
// model, probe and countermeasure configuration but its own noise stream.
// Acquisition workers clone the victim so concurrent measurements never
// share generator state.
func (d *Device) Clone(noiseSeed uint64) *Device {
	c := *d
	c.secret = append([]fft.Cplx(nil), d.secret...)
	c.noise = rng.New(noiseSeed)
	return &c
}

// SeedNoise resets the device's probe-noise (and shuffle/blinding) stream.
// Indexed acquisition reseeds per observation so each measurement's
// randomness is a pure function of its index.
func (d *Device) SeedNoise(seed uint64) { d.noise = rng.New(seed) }

// N returns the polynomial degree of the device's FALCON instance.
func (d *Device) N() int { return d.n }

// Model returns the device's leakage model.
func (d *Device) Model() LeakageModel { return d.model }

// traceRecorder converts micro-op records into trace samples laid out in
// fixed per-coefficient windows.
type traceRecorder struct {
	dev     *Device
	samples []float64
	pos     int
	prev    uint64
}

func (r *traceRecorder) Record(_ fpr.Op, value uint64) {
	leak := r.dev.model.Leak(r.prev, value)
	r.prev = value
	r.samples[r.pos] = r.dev.probe.Gain*leak + r.dev.probe.NoiseSigma*r.dev.noise.NormFloat64()
	r.pos++
}

// ObserveMul captures one measurement of the targeted multiplication for
// the (adversary-known) FFT-domain input cFFT. The returned trace has
// n/2 × SamplesPerCoeff samples.
func (d *Device) ObserveMul(cFFT []fft.Cplx) (Observation, error) {
	if len(cFFT) != len(d.secret) {
		return Observation{}, fmt.Errorf("emleak: input has %d coefficients, device expects %d", len(cFFT), len(d.secret))
	}
	rec := &traceRecorder{dev: d, samples: make([]float64, len(cFFT)*SamplesPerCoeff)}
	order := make([]int, len(cFFT))
	for i := range order {
		order[i] = i
	}
	if d.Shuffle {
		for i := len(order) - 1; i > 0; i-- {
			j := d.noise.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	// Apply blinding countermeasures to the device-internal operand; the
	// adversary still only knows the unblinded cFFT.
	work := cFFT
	if d.ExponentBlind || d.MultBlind {
		blind := fpr.One
		if d.ExponentBlind {
			blind = fpr.FromScaled(1, d.noise.Intn(16)-8)
		}
		if d.MultBlind {
			// A uniformly random significand in [1, 2).
			m := uint64(1)<<52 | d.noise.Uint64()&((uint64(1)<<52)-1)
			blind = fpr.Mul(blind, fpr.FromScaled(int64(m), -52))
		}
		work = make([]fft.Cplx, len(cFFT))
		for i, z := range cFFT {
			work[i] = z.Scale(blind)
		}
	}
	for _, k := range order {
		start := rec.pos
		fft.MulTraced(work[k], d.secret[k], rec)
		if rec.pos-start != SamplesPerCoeff {
			return Observation{}, fmt.Errorf("emleak: coefficient %d produced %d micro-ops, want %d (degenerate zero operand)", k, rec.pos-start, SamplesPerCoeff)
		}
	}
	return Observation{CFFT: cFFT, Trace: Trace{Samples: rec.samples}}, nil
}
