package supervise

import (
	"fmt"
	"math"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
)

// Online quality gate. Discovering dirty traces at attack time wastes a
// whole campaign; the gate inspects every observation at write time — in
// commit order, in the pool's committing Appender, so verdicts are
// deterministic — and flags saturated, energy-anomalous and
// desynchronized captures into the campaign's CorpusHealth. Flagged observations are still written
// (resume offsets must not depend on verdicts); the attack masks them
// out via tracestore.NewMaskedSource.

// GateConfig tunes the online quality gate. The zero value disables it.
type GateConfig struct {
	// SatLevel is the saturation amplitude: an observation with more
	// than SatFrac of its samples at |s| >= SatLevel is flagged
	// (SatLevel 0 disables the detector; SatFrac defaults to 0.05).
	SatLevel float64
	SatFrac  float64
	// EnergySigmas flags observations whose RMS energy sits more than
	// this many standard deviations from the rolling campaign mean
	// (0 disables).
	EnergySigmas float64
	// DesyncShift flags observations whose best cross-correlation lag
	// against the rolling mean template is nonzero within ±DesyncShift
	// samples (0 disables).
	DesyncShift int
	// Window is the effective length of the rolling statistics
	// (exponential moving averages with α = 2/(Window+1), default 128).
	Window int
	// Warmup is how many clean observations the rolling detectors need
	// before they start issuing verdicts (default 32). The saturation
	// detector needs no statistics and is active from the first trace.
	Warmup int
}

// Enabled reports whether any detector is active.
func (c GateConfig) Enabled() bool {
	return c.SatLevel > 0 || c.EnergySigmas > 0 || c.DesyncShift > 0
}

func (c GateConfig) withDefaults() GateConfig {
	if c.SatFrac <= 0 {
		c.SatFrac = 0.05
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Warmup <= 0 {
		c.Warmup = 32
	}
	return c
}

// gate holds the rolling statistics. It is driven from the acquisition's
// collector goroutine only, in commit order, so it needs no locking and
// its verdicts are a pure function of the committed prefix.
type gate struct {
	cfg   GateConfig
	alpha float64

	clean      int       // clean observations folded into the statistics
	template   []float64 // EMA per-sample mean
	energyMean float64   // EMA of per-trace RMS
	energyVar  float64   // EMA of squared deviation
}

func newGate(cfg GateConfig) *gate {
	cfg = cfg.withDefaults()
	return &gate{cfg: cfg, alpha: 2 / float64(cfg.Window+1)}
}

// check inspects one observation in commit order, returning a non-empty
// verdict if any detector flags it. Clean observations update the
// rolling statistics; flagged ones do not, so a burst of dirty traces
// cannot drag the baseline toward itself.
func (g *gate) check(o emleak.Observation) string {
	s := o.Trace.Samples
	if g.cfg.SatLevel > 0 {
		sat := 0
		for _, v := range s {
			if math.Abs(v) >= g.cfg.SatLevel {
				sat++
			}
		}
		if frac := float64(sat) / float64(len(s)); frac > g.cfg.SatFrac {
			return fmt.Sprintf("saturated: %.1f%% of samples at |s| >= %g", 100*frac, g.cfg.SatLevel)
		}
	}
	warm := g.clean >= g.cfg.Warmup
	rms := cpa.RMS(s)
	if g.cfg.EnergySigmas > 0 && warm {
		if sd := math.Sqrt(g.energyVar); sd > 0 {
			if z := math.Abs(rms-g.energyMean) / sd; z > g.cfg.EnergySigmas {
				return fmt.Sprintf("energy outlier: RMS %.1f is %.1fσ from rolling mean %.1f", rms, z, g.energyMean)
			}
		}
	}
	if g.cfg.DesyncShift > 0 && warm && g.template != nil {
		if lag := cpa.BestLag(s, g.template, g.cfg.DesyncShift); lag != 0 {
			return fmt.Sprintf("desynced: best alignment at lag %+d", lag)
		}
	}

	// Clean: fold into the rolling statistics.
	if g.template == nil {
		g.template = append([]float64(nil), s...)
		g.energyMean = rms
		g.energyVar = 0
		g.clean = 1
		return ""
	}
	for j, v := range s {
		g.template[j] += g.alpha * (v - g.template[j])
	}
	d := rms - g.energyMean
	g.energyMean += g.alpha * d
	g.energyVar += g.alpha * (d*d - g.energyVar)
	g.clean++
	return ""
}
