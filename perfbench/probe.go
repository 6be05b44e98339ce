package main

import (
	"math/bits"
	"slices"
	"time"
)

// The benchmark runs on shared hosts whose speed moves by up to twice
// from one second to the next as other tenants come and go: on a 2-vCPU
// Xeon host a fixed loop took 11 to 25 ms, second by second, and the
// attack times of one victim moved with it, while steal time, which CPU
// accounting could subtract, stayed about 1.5%. So every attack sample, and the set-up
// as a whole, runs beside a probe: a goroutine that repeats a small
// fixed computation every probeEvery and times each repetition. The mean
// probe time says how fast the host ran meanwhile, and the timing is
// reported in reference seconds, its wall time scaled to a host on which
// the probe takes refProbe:
//
//	reference seconds = wall seconds × refProbe / mean probe time
//
// The mean is trimmed (probeTrim of the probe times at each end): when
// the attack keeps both vCPUs busy, the kernel now and then preempts a
// probe for a whole time slice, and such a probe says nothing about the
// host's speed. A set-up repetition is too short for a steady mean of
// its own, so one probe spans all of them.
//
// Measured over a few minutes of back-to-back attacks on each workload,
// this cut the spread (IQR over median) of one victim's samples from
// 0.10-0.21 in wall time to 0.06-0.09, and that of the median sample of
// 40-second windows from 0.07-0.10 to 0.01-0.05. Over eight runs of each
// workload it cut the spread of the median set-up time from 0.30 to 0.10
// on falcon64-w2 and from 0.12 to 0.09 on falcon16-dirty-w2, and left it
// at 0.13 on falcon16-w1. The probe runs no code of the repository and
// allocates one buffer per timing, so no change to the program or to its
// memory use moves it; it is busy about 2.5% of the time.

const (
	probeEvery = 20 * time.Millisecond
	probeTrim  = 0.1
	// refProbe is about the probe's time on the 2-vCPU Xeon host the
	// benchmark was tuned on, where its mean over a timing ranged from
	// 0.24 to 0.56 ms.
	refProbe = 500 * time.Microsecond
)

// probeWork is the probe's computation, shaped like the attack's inner
// loop: Hamming-weight predictions for 64 hypotheses over 2400 inputs,
// folded into the three sums of a correlation.
func probeWork() float64 {
	var sumH, sumH2, sumHT [64]float64
	for tr := range 2400 {
		t := float64(tr % 13)
		x := uint64(tr+1) * 0x9E3779B97F4A7C15
		for i := range sumH {
			h := float64(bits.OnesCount64((x * uint64(2*i+1)) & 0xFFFFFFFF))
			sumH[i] += h
			sumH2[i] += h * h
			sumHT[i] += h * t
		}
	}
	return sumH[1] + sumH2[2] + sumHT[3]
}

// probe is a running probe; stop ends it. sink keeps probeWork's result
// so that the compiler cannot drop the computation.
type probe struct {
	quit  chan struct{}
	done  chan struct{}
	times []time.Duration
	sink  float64
}

// startProbe starts a probe. Its first computation starts at once, so a
// timing of any length has at least one.
func startProbe() *probe {
	p := &probe{quit: make(chan struct{}), done: make(chan struct{}), times: make([]time.Duration, 0, 512)}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			start := time.Now()
			p.sink += probeWork()
			p.times = append(p.times, time.Since(start))
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the probe, waits for its goroutine and returns the trimmed
// mean time of its computations.
func (p *probe) stop() time.Duration {
	close(p.quit)
	<-p.done
	slices.Sort(p.times)
	k := int(probeTrim * float64(len(p.times)))
	kept := p.times[k : len(p.times)-k]
	var sum time.Duration
	for _, d := range kept {
		sum += d
	}
	return sum / time.Duration(len(kept))
}

// step is one timing: its wall time and the mean probe time beside it.
type step struct {
	wall, probe time.Duration
}

// ref is the step's time in reference seconds.
func (s step) ref() float64 {
	return s.wall.Seconds() * refProbe.Seconds() / s.probe.Seconds()
}
