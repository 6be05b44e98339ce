package core

// Wire layer for the distributed attack fleet (internal/cluster). A
// coordinator describes each campaign pass as plain data — how to rebuild
// its view of the corpus (SourceSpec) and the zero-state accumulator jobs
// of the pass (JobSpec) — and workers answer with per-shard partial
// accumulator states (ShardPartial). The coordinator folds decoded
// partials in strict shard-index order through the very same merge calls
// the local engine uses, so a distributed pass executes the identical
// sequence of floating-point operations as serialPass: byte-identity
// across the fleet falls out of the pinned reduction of parallel.go, not
// of any cross-node trust.
//
// The contract hinges on two properties, both tested:
//   - every float64 crosses the wire as its IEEE-754 bit pattern (see
//     internal/cpa/state.go), so decode(encode(clone)) merges bit-exactly
//     like the clone itself;
//   - a worker rebuilding a job from its JobSpec derives exactly the
//     read-only configuration (targets, candidate lists, sample offsets)
//     that the coordinator's live job holds, because that configuration
//     is a pure function of the spec fields.

import (
	"fmt"
	"sync"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fpr"
	"falcondown/internal/tracestore"
)

// SourceSpec tells a worker how to rebuild the coordinator's view of the
// raw corpus: mask layers applied in order (each indexing into the view
// produced by the previous layer), then the robust-preprocessing
// transform. The zero value is the raw corpus itself.
type SourceSpec struct {
	Masks  [][]int         `json:"masks,omitempty"`
	Robust *RobustPlanSpec `json:"robust,omitempty"`
	// Pin, when set, names the exact corpus content the view was built
	// over. A worker must refuse to sweep a replica whose shard digests
	// disagree — a divergent replica is well-formed and passes every CRC
	// check, so content addressing is the only defense.
	Pin *CorpusPin `json:"pin,omitempty"`
}

// CorpusPin is the content identity of the coordinator's corpus: the
// ordered per-shard-file SHA-256 digests and the corpus-level manifest
// digest binding them (see tracestore.Manifest). Note these address
// shard *files*, not the 64-observation logical shards of the pinned
// reduction.
type CorpusPin struct {
	Manifest string   `json:"manifest"`
	Shards   []string `json:"shards"`
}

// manifested is satisfied by sources whose content can be addressed —
// notably *tracestore.Corpus.
type manifested interface {
	Manifest() (*tracestore.Manifest, error)
}

// pinOf derives the content pin of a raw corpus, or nil when the source
// is not content-addressable (in-memory slices, test doubles) or cannot
// be hashed; distribution then proceeds unpinned, exactly as before
// pins existed.
func pinOf(raw Source) *CorpusPin {
	m, ok := raw.(manifested)
	if !ok {
		return nil
	}
	man, err := m.Manifest()
	if err != nil {
		return nil
	}
	pin := &CorpusPin{Manifest: man.Digest}
	for _, s := range man.Shards {
		pin.Shards = append(pin.Shards, s.SHA256)
	}
	return pin
}

// RobustPlanSpec is the frozen robust-preprocessing plan (see robust.go):
// the resync template and winsorization bands as packed IEEE-754 bits.
// It captures the plan's *data*, so a worker applies the identical
// transform without re-deriving it.
type RobustPlanSpec struct {
	ResyncShift int    `json:"resyncShift,omitempty"`
	Template    string `json:"template,omitempty"`
	Lo          string `json:"lo,omitempty"`
	Hi          string `json:"hi,omitempty"`
	NSamp       int    `json:"nSamp"`
}

// planSpec snapshots the source's current transform plan. The snapshot is
// deep (packed strings), so later refinement of the bounds does not
// mutate a spec already shipped.
func (s *robustSource) planSpec() *RobustPlanSpec {
	p := &RobustPlanSpec{ResyncShift: s.cfg.ResyncShift}
	if s.template != nil {
		p.Template = cpa.PackFloats(s.template)
		p.NSamp = len(s.template)
	}
	if s.lo != nil {
		p.Lo = cpa.PackFloats(s.lo)
		p.Hi = cpa.PackFloats(s.hi)
		p.NSamp = len(s.lo)
	}
	return p
}

// robustFromPlan rebuilds a transform-only robustSource (nil inner; only
// apply is usable) from a shipped plan.
func robustFromPlan(p *RobustPlanSpec) (*robustSource, error) {
	rs := &robustSource{cfg: RobustConfig{ResyncShift: p.ResyncShift}}
	var err error
	if p.Template != "" {
		if rs.template, err = cpa.UnpackFloats(p.Template, p.NSamp); err != nil {
			return nil, err
		}
	}
	if p.Lo != "" {
		if rs.lo, err = cpa.UnpackFloats(p.Lo, p.NSamp); err != nil {
			return nil, err
		}
		if rs.hi, err = cpa.UnpackFloats(p.Hi, p.NSamp); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// BuildSource applies a SourceSpec to a raw corpus, reproducing the
// coordinator's view byte-for-byte: mask layers in order, then the robust
// transform with clamping active when bands are present.
func BuildSource(raw Source, spec SourceSpec) (Source, error) {
	src := raw
	for _, mask := range spec.Masks {
		for _, idx := range mask {
			if idx < 0 || idx >= src.Count() {
				return nil, fmt.Errorf("core: mask index %d outside corpus of %d traces", idx, src.Count())
			}
		}
		src = tracestore.NewMaskedSource(src, mask)
	}
	if spec.Robust != nil {
		rs, err := robustFromPlan(spec.Robust)
		if err != nil {
			return nil, err
		}
		rs.inner = src
		src = rs
	}
	return src, nil
}

// JobSpec describes one pass job as plain data — enough for a worker to
// rebuild a zero-state accumulator whose observe() performs the identical
// arithmetic as the coordinator's. Kind selects the job type; the other
// fields are that kind's read-only configuration.
type JobSpec struct {
	Kind  string   `json:"kind"`
	Coeff int      `json:"coeff,omitempty"`
	Part  int      `json:"part,omitempty"`
	High  bool     `json:"high,omitempty"`
	Next  []uint64 `json:"next,omitempty"` // extend: candidate values
	Mask  uint64   `json:"mask,omitempty"` // extend: product mask
	D     []uint64 `json:"d,omitempty"`    // prune: pair d values
	C     []uint64 `json:"c,omitempty"`    // prune: pair c values
	AbsRe uint64   `json:"absRe,omitempty"`
	AbsIm uint64   `json:"absIm,omitempty"`
	Clamp bool     `json:"clamp,omitempty"`
	// Transform carries the welford job's input transform (the robust
	// refinement pass sees traces through the first-round plan).
	Transform *RobustPlanSpec `json:"transform,omitempty"`
}

// JobState is the wire form of one job's accumulators: CPA engines, a
// matrix engine, or per-sample running stats, depending on the job kind.
type JobState struct {
	Engines []cpa.EngineState       `json:"engines,omitempty"`
	Matrix  *cpa.MatrixEngineState  `json:"matrix,omitempty"`
	Stats   []cpa.RunningStatsState `json:"stats,omitempty"`
}

// ShardPartial is one corpus shard's partial accumulation of a block of
// jobs, in job order.
type ShardPartial struct {
	Shard  int        `json:"shard"`
	States []JobState `json:"states"`
}

// engineStates packs a list of engines.
func engineStates(engines []*cpa.Engine) []cpa.EngineState {
	out := make([]cpa.EngineState, len(engines))
	for i, e := range engines {
		out[i] = e.State()
	}
	return out
}

// decodeEngines decodes a partial's engine list, demanding the count and
// per-engine hypothesis width of the receiving job.
func decodeEngines(st JobState, count, nHyp int) ([]*cpa.Engine, error) {
	if len(st.Engines) != count {
		return nil, fmt.Errorf("core: partial carries %d engines, job has %d", len(st.Engines), count)
	}
	out := make([]*cpa.Engine, count)
	for i, es := range st.Engines {
		e, err := cpa.EngineFromState(es)
		if err != nil {
			return nil, err
		}
		if e.NHyp() != nHyp {
			return nil, fmt.Errorf("core: partial engine %d has %d hypotheses, job expects %d", i, e.NHyp(), nHyp)
		}
		out[i] = e
	}
	return out, nil
}

// --- the wire form of each job ------------------------------------------

func (j *expJob) spec() JobSpec {
	return JobSpec{Kind: "exp", Coeff: j.coeff, Part: int(j.part)}
}

func (j *expJob) state() JobState {
	return JobState{Engines: engineStates(j.engines[:])}
}

func (j *expJob) fromState(st JobState) (job, error) {
	engines, err := decodeEngines(st, 2, nExpHyp)
	if err != nil {
		return nil, err
	}
	return &expJob{coeff: j.coeff, part: j.part, engines: [2]*cpa.Engine{engines[0], engines[1]}}, nil
}

func (j *signJob) spec() JobSpec {
	return JobSpec{Kind: "sign", Coeff: j.coeff, Part: int(j.part)}
}

func (j *signJob) state() JobState {
	return JobState{Engines: engineStates(j.engines[:])}
}

func (j *signJob) fromState(st JobState) (job, error) {
	engines, err := decodeEngines(st, 2, 2)
	if err != nil {
		return nil, err
	}
	return &signJob{coeff: j.coeff, part: j.part, engines: [2]*cpa.Engine{engines[0], engines[1]}}, nil
}

func (j *extendRoundJob) spec() JobSpec {
	return JobSpec{
		Kind: "extend", Coeff: j.coeff, Part: int(j.part), High: j.high,
		Next: j.next, Mask: j.mask,
	}
}

func (j *extendRoundJob) state() JobState {
	return JobState{Engines: engineStates(j.engines)}
}

func (j *extendRoundJob) fromState(st JobState) (job, error) {
	engines, err := decodeEngines(st, len(j.engines), len(j.next))
	if err != nil {
		return nil, err
	}
	return j.withEngines(engines), nil
}

func (j *pruneJob) spec() JobSpec {
	d := make([]uint64, len(j.pairs))
	c := make([]uint64, len(j.pairs))
	for i, p := range j.pairs {
		d[i], c[i] = p.d, p.c
	}
	return JobSpec{Kind: "prune", Coeff: j.coeff, Part: int(j.part), D: d, C: c}
}

func (j *pruneJob) state() JobState {
	return JobState{Engines: engineStates(j.engines)}
}

func (j *pruneJob) fromState(st JobState) (job, error) {
	engines, err := decodeEngines(st, len(j.engines), len(j.pairs))
	if err != nil {
		return nil, err
	}
	return &pruneJob{coeff: j.coeff, part: j.part, pairs: j.pairs, engines: engines}, nil
}

func (j *jointSignJob) spec() JobSpec {
	return JobSpec{
		Kind: "jointsign", Coeff: j.coeff,
		AbsRe: uint64(fpr.Abs(j.cands[0].Re)),
		AbsIm: uint64(fpr.Abs(j.cands[0].Im)),
	}
}

func (j *jointSignJob) state() JobState {
	st := j.eng.State()
	return JobState{Matrix: &st}
}

func (j *jointSignJob) fromState(st JobState) (job, error) {
	if st.Matrix == nil {
		return nil, fmt.Errorf("core: joint-sign partial without a matrix engine")
	}
	eng, err := cpa.MatrixEngineFromState(*st.Matrix)
	if err != nil {
		return nil, err
	}
	if eng.NHyp() != 4 || eng.NSamp() != len(j.sampleOffsets) {
		return nil, fmt.Errorf("core: joint-sign partial shaped %dx%d, job expects 4x%d",
			eng.NHyp(), eng.NSamp(), len(j.sampleOffsets))
	}
	c := j.clone().(*jointSignJob)
	c.eng = eng
	return c, nil
}

func (j *welfordJob) spec() JobSpec {
	s := JobSpec{Kind: "welford", Clamp: j.clamp}
	if j.transform != nil {
		s.Transform = j.transform.planSpec()
	}
	return s
}

func (j *welfordJob) state() JobState {
	stats := make([]cpa.RunningStatsState, len(j.stats))
	for i := range j.stats {
		stats[i] = j.stats[i].State()
	}
	return JobState{Stats: stats}
}

func (j *welfordJob) fromState(st JobState) (job, error) {
	c := j.clone().(*welfordJob)
	if len(st.Stats) == 0 {
		return c, nil
	}
	c.stats = make([]cpa.RunningStats, len(st.Stats))
	for i, ss := range st.Stats {
		s, err := cpa.RunningStatsFromState(ss)
		if err != nil {
			return nil, err
		}
		c.stats[i] = s
	}
	return c, nil
}

// jobFromSpec rebuilds a zero-state job from its wire description. The
// rebuilt job performs the identical arithmetic as the coordinator's live
// job because every piece of read-only configuration is either shipped
// verbatim or a pure function of the spec fields.
func jobFromSpec(s JobSpec) (job, error) {
	switch s.Kind {
	case "exp":
		return newExpJob(s.Coeff, Part(s.Part)), nil
	case "sign":
		return newSignJob(s.Coeff, Part(s.Part)), nil
	case "extend":
		return newExtendRoundJob(s.Coeff, Part(s.Part), s.High, s.Next, s.Mask), nil
	case "prune":
		if len(s.D) != len(s.C) || len(s.D) == 0 {
			return nil, fmt.Errorf("core: prune spec with %d d and %d c candidates", len(s.D), len(s.C))
		}
		pairs := make([]mantPair, len(s.D))
		for i := range pairs {
			pairs[i] = mantPair{d: s.D[i], c: s.C[i]}
		}
		return pruneJobFromPairs(s.Coeff, Part(s.Part), pairs), nil
	case "jointsign":
		return newJointSignJob(s.Coeff, fpr.FPR(s.AbsRe), fpr.FPR(s.AbsIm)), nil
	case "welford":
		j := &welfordJob{clamp: s.Clamp}
		if s.Transform != nil {
			rs, err := robustFromPlan(s.Transform)
			if err != nil {
				return nil, err
			}
			j.transform = rs
		}
		return j, nil
	default:
		return nil, fmt.Errorf("core: unknown job kind %q", s.Kind)
	}
}

// errStopSweep ends a forEachShard walk once the requested shard range
// has been produced.
var errStopSweep = fmt.Errorf("core: stop sweep")

// ComputeShardPartials is the worker entry point: rebuild the
// coordinator's corpus view and the pass jobs, accumulate shards
// [shardLo, shardHi) into zero-state partials, and return their states
// in shard order. It never folds anything — folding is the coordinator's
// job, in global shard order.
func ComputeShardPartials(raw Source, view SourceSpec, specs []JobSpec, shardLo, shardHi int) ([]ShardPartial, error) {
	src, err := BuildSource(raw, view)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(specs))
	for i, s := range specs {
		if jobs[i], err = jobFromSpec(s); err != nil {
			return nil, err
		}
	}
	return computeLocalPartials(src, jobs, shardLo, shardHi)
}

// Distributor executes one campaign pass across the fleet: it must see
// every (shard, job) cell of the pass deposited into p exactly once —
// remotely, or via p.Compute locally — before returning nil.
type Distributor interface {
	RunPass(p *DistPass) error
}

// distSource tags a Source with the distributor that should execute its
// passes and the wire description workers use to rebuild the view.
// runPass recognizes it and fans the pass out; every other Source method
// delegates to the local view, so the rest of the attack code is
// oblivious to distribution.
type distSource struct {
	Source
	dist Distributor
	view SourceSpec
	// pin is the raw corpus's content identity, derived once at
	// WithDistributor and carried through every view rewrap (masking,
	// robust transforms) so each pass shipped to workers stays pinned to
	// the same bytes.
	pin *CorpusPin
}

// WithDistributor wraps a raw corpus so that every campaign pass over it
// is executed through dist. The source must be the untransformed corpus a
// worker can open by itself (masking and robust preprocessing derived
// later are described to workers through the wire view). When the corpus
// is content-addressable its shard digests are pinned into every shipped
// view, so workers reject divergent replicas.
func WithDistributor(raw Source, dist Distributor) Source {
	return &distSource{Source: raw, dist: dist, pin: pinOf(raw)}
}

// DistPass is one campaign pass prepared for distribution: the corpus
// view, the job descriptions, and the in-order fold state. A distributor
// calls Deposit for partials computed remotely and Compute for local
// fallback; DistPass guarantees each (shard, job) cell folds exactly once
// and in shard order, whatever the arrival order, duplication, or mix of
// remote and local execution.
type DistPass struct {
	view  SourceSpec
	specs []JobSpec
	local Source

	mu      sync.Mutex
	jobs    []job
	next    []int         // per job: next shard index to fold
	pending []map[int]job // per job: decoded partials awaiting their turn
	nShards int
	dups    int
}

// newDistPass prepares a pass for distribution.
func newDistPass(ds *distSource, jobs []job) *DistPass {
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec()
	}
	view := ds.view
	view.Pin = ds.pin
	return &DistPass{
		view:    view,
		specs:   specs,
		local:   ds.Source,
		jobs:    jobs,
		next:    make([]int, len(jobs)),
		pending: make([]map[int]job, len(jobs)),
		nShards: (ds.Source.Count() + shardObs - 1) / shardObs,
	}
}

// View returns the corpus view workers must rebuild.
func (p *DistPass) View() SourceSpec { return p.view }

// Jobs returns the pass's job descriptions, in fold order.
func (p *DistPass) Jobs() []JobSpec { return p.specs }

// NumShards returns how many corpus shards the pass covers.
func (p *DistPass) NumShards() int { return p.nShards }

// NumJobs returns how many jobs the pass carries.
func (p *DistPass) NumJobs() int { return len(p.specs) }

// Duplicates reports how many deposited cells were dropped as duplicates
// (late lease re-issues, hedged attempts, replayed deliveries).
func (p *DistPass) Duplicates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dups
}

// Deposit folds one shard's partial for the job block starting at jobLo.
// Decoding validates every accumulator shape against the live job, so a
// corrupted or mis-addressed partial is rejected whole — nothing folds.
// Cells already folded or already pending are dropped as duplicates:
// depositing is idempotent, which is what makes lease re-issue and
// hedging safe.
func (p *DistPass) Deposit(jobLo int, sp ShardPartial) error {
	if sp.Shard < 0 || sp.Shard >= p.nShards {
		return fmt.Errorf("core: partial for shard %d of %d", sp.Shard, p.nShards)
	}
	if jobLo < 0 || jobLo+len(sp.States) > len(p.jobs) {
		return fmt.Errorf("core: partial for jobs [%d,%d) of %d", jobLo, jobLo+len(sp.States), len(p.jobs))
	}
	// Decode and validate the whole block before touching fold state, so a
	// partial that is half-good never half-folds.
	decoded := make([]job, len(sp.States))
	for i, st := range sp.States {
		d, err := p.jobs[jobLo+i].fromState(st)
		if err != nil {
			return err
		}
		decoded[i] = d
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range decoded {
		j := jobLo + i
		if sp.Shard < p.next[j] {
			p.dups++
			continue
		}
		if p.pending[j] == nil {
			p.pending[j] = make(map[int]job)
		}
		if _, dup := p.pending[j][sp.Shard]; dup {
			p.dups++
			continue
		}
		p.pending[j][sp.Shard] = d
		for {
			q, ok := p.pending[j][p.next[j]]
			if !ok {
				break
			}
			delete(p.pending[j], p.next[j])
			p.jobs[j].merge(q)
			p.next[j]++
		}
	}
	return nil
}

// Compute runs a cell block locally, against the coordinator's own view —
// the graceful-degradation path when the fleet cannot take the work. The
// partials travel through the same encode path as remote ones, so local
// and remote execution are indistinguishable downstream.
func (p *DistPass) Compute(shardLo, shardHi, jobLo, jobHi int) ([]ShardPartial, error) {
	if jobLo < 0 || jobHi > len(p.specs) || jobLo >= jobHi {
		return nil, fmt.Errorf("core: compute of jobs [%d,%d) of %d", jobLo, jobHi, len(p.specs))
	}
	return computeLocalPartials(p.local, p.jobs[jobLo:jobHi], shardLo, shardHi)
}

// computeLocalPartials accumulates shards [shardLo, shardHi) of src into
// zero-state clones of the given live jobs and encodes the partial
// states. One clone per job carries every shard, reset after each
// encode.
func computeLocalPartials(src Source, jobs []job, shardLo, shardHi int) ([]ShardPartial, error) {
	if shardLo >= shardHi {
		return nil, nil
	}
	var out []ShardPartial
	var partials []job
	k := shardLo
	err := forEachShard(src, shardLo, func(shard []emleak.Observation) error {
		if partials == nil {
			partials = make([]job, len(jobs))
			for i, j := range jobs {
				partials[i] = j.clone()
			}
		}
		sp := ShardPartial{Shard: k, States: make([]JobState, len(jobs))}
		for i, c := range partials {
			accumulateShard(c, shard)
			sp.States[i] = c.state()
			c.reset()
		}
		out = append(out, sp)
		k++
		if k == shardHi {
			return errStopSweep
		}
		return nil
	})
	if err != nil && err != errStopSweep {
		return nil, err
	}
	return out, nil
}

// incomplete returns an error naming the first unfolded cell, or nil when
// every (shard, job) cell has folded — the pass's completion check.
func (p *DistPass) incomplete() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for j, n := range p.next {
		if n < p.nShards {
			return fmt.Errorf("core: distributed pass incomplete: job %d folded %d of %d shards", j, n, p.nShards)
		}
	}
	return nil
}
