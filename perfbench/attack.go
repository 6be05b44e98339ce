package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"falcondown/internal/core"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
)

// outcome is what one attack on one victim returned, before the gate.
type outcome struct {
	priv      *falcon.PrivateKey
	report    *core.RecoveryReport
	err       error // from the key recovery
	signErr   error
	verifyErr error
}

// attack runs one sample: recover the victim's key from its opened
// corpus and, when a key comes back, forge a signature on msg and verify
// it under the victim's public key. The duration runs from the call into
// core to the verdict. With l nil nothing wraps any layer and the
// attack is core.RecoverKeyFrom itself; otherwise the corpus is wrapped
// in a tracedSource, an in-memory checkpoint store marks the stage
// boundaries, and the sample's per-layer figures are added to l; the
// error reports a trace that does not have the attack's known shape.
func attack(w workload, v *victim, msg []byte, seed uint64, l *layers) (outcome, time.Duration, error) {
	cfg := core.Config{Workers: w.workers, Robust: w.robust}
	// Forgeries are signed with a generator seeded from the victim (and
	// the run), where cmd/attack draws on system entropy.
	sigRand := rng.New(rng.DeriveSeed(v.seed, seed))
	var out outcome
	if l == nil {
		start := time.Now()
		out.priv, out.report, out.err = core.RecoverKeyFrom(v.corpus, v.pub, cfg)
		if out.err == nil {
			var sig *falcon.Signature
			if sig, out.signErr = out.priv.Sign(msg, sigRand); out.signErr == nil {
				out.verifyErr = v.pub.Verify(msg, sig)
			}
		}
		return out, time.Since(start), nil
	}

	src := &tracedSource{Source: v.corpus}
	store := &memStore{src: src}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out.priv, out.report, out.err = core.RecoverKeyResumable(src, v.pub, cfg, store)
	recovered := time.Now()
	var signTime, verifyTime time.Duration
	if out.err == nil {
		var sig *falcon.Signature
		sig, out.signErr = out.priv.Sign(msg, sigRand)
		signTime = time.Since(recovered)
		if out.signErr == nil {
			t := time.Now()
			out.verifyErr = v.pub.Verify(msg, sig)
			verifyTime = time.Since(t)
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)

	err := l.addAttack(src, store, start, recovered)
	l.add("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	l.add("core.gc_cycles", float64(after.NumGC-before.NumGC))
	if out.err == nil {
		l.add("falcon.sign_s", signTime.Seconds())
		if out.signErr == nil {
			l.add("falcon.verify_s", verifyTime.Seconds())
		}
	}
	return out, d, err
}

// verdict is the checked result of attacking one victim.
type verdict struct {
	Recovered bool
	Failure   string // the detected failure, empty when recovered
	Key       []byte // core.KeyJSON of the (f, g) the attack returned
}

func (vd verdict) String() string {
	if vd.Recovered {
		return "recovered, f and g exact, forgery verified"
	}
	return "detected failure: " + vd.Failure
}

// agree checks a victim's new verdict against its first one: the attack
// is deterministic, so every sample of a victim must end the same way
// with the same key bytes. The zero verdict (no sample yet) agrees with
// anything.
func (vd verdict) agree(next verdict) error {
	if vd.Key == nil {
		return nil
	}
	if vd.Recovered != next.Recovered || vd.Failure != next.Failure || !bytes.Equal(vd.Key, next.Key) {
		return fmt.Errorf("verdict changed between samples: %q, then %q", vd, next)
	}
	return nil
}

// check is the correctness gate. A recovered key must have the victim's
// own f and g and its forgery must verify under the victim's public key;
// a failed recovery must be a detected one, core.ErrImplausibleKey with a
// partial report. Anything else is an error: a wrong key returned as
// success, a forgery that does not verify, or any other error.
func check(v *victim, out outcome) (verdict, error) {
	if out.err != nil {
		if !errors.Is(out.err, core.ErrImplausibleKey) {
			return verdict{}, fmt.Errorf("recovery failed with an undetected error: %w", out.err)
		}
		if out.report == nil {
			return verdict{}, fmt.Errorf("detected failure without a report: %w", out.err)
		}
		return verdict{Failure: out.err.Error(), Key: core.KeyJSON(out.report.F, out.report.G)}, nil
	}
	if out.priv == nil || out.report == nil {
		return verdict{}, errors.New("recovery succeeded without a key or report")
	}
	truthF, truthG := v.priv.Fs, v.priv.Gs
	if !slices.Equal(out.report.F, truthF) || !slices.Equal(out.report.G, truthG) ||
		!slices.Equal(out.priv.Fs, truthF) || !slices.Equal(out.priv.Gs, truthG) {
		return verdict{}, errors.New("a wrong key was returned as success")
	}
	if out.signErr != nil {
		return verdict{}, fmt.Errorf("signing with the recovered key: %w", out.signErr)
	}
	if out.verifyErr != nil {
		return verdict{}, fmt.Errorf("forgery does not verify under the victim's public key: %w", out.verifyErr)
	}
	return verdict{Recovered: true, Key: core.KeyJSON(out.report.F, out.report.G)}, nil
}
