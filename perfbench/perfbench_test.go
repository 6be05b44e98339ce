package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"falcondown/internal/core"
)

// reduced are one-victim workloads small enough for a unit test, one per
// acquisition path, both of which recover their key.
var reduced = []workload{
	{name: "reduced", n: 8, sigma: 1.5, traces: 1000, workers: 1, victims: []uint64{1}},
	{name: "reduced-dirty", n: 8, sigma: 1.5, traces: 1000, workers: 2, flaky: "0:glitch,0:desync",
		robust: core.RobustConfig{TrimSigmas: 4, ResyncShift: 3, Winsorize: 4}, victims: []uint64{1}},
}

func TestReducedVictimRepeats(t *testing.T) {
	for _, w := range reduced {
		t.Run(w.name, func(t *testing.T) {
			var first *result
			for range 2 {
				res, err := run(w, 7, time.Nanosecond, true, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted != 2 || res.failed != 0 || !res.verdicts[0].Recovered {
					t.Fatalf("attempted %d, failed %d, verdict %s", res.attempted, res.failed, res.verdicts[0])
				}
				if first == nil {
					first = res
					continue
				}
				if err := first.verdicts[0].agree(res.verdicts[0]); err != nil {
					t.Error(err)
				}
				a, b := first.metrics(true), res.metrics(true)
				for _, m := range perLayer {
					if m.exact && a[m.name] != b[m.name] {
						t.Errorf("%s: %v, then %v", m.name, a[m.name].Value, b[m.name].Value)
					}
				}
			}
			if got := first.metrics(true)["tracestore.passes"].Value; got < float64(len(stages)) {
				t.Errorf("tracestore.passes = %v, want at least one per stage", got)
			}
			for name := range first.layers.stats {
				if !slices.ContainsFunc(perLayer, func(m layerMetric) bool { return m.name == name }) {
					t.Errorf("traced figure %q is not a per-layer metric", name)
				}
			}
		})
	}
}

func TestGateRejectsWrongVerdicts(t *testing.T) {
	w := reduced[0]
	set, err := setUp(w, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v := set[0]
	good, _, err := attack(w, v, []byte("msg"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := check(v, good)
	if err != nil || !vd.Recovered {
		t.Fatalf("untouched recovery: verdict %s, error %v", vd, err)
	}

	altered := func(edit func(*outcome)) outcome {
		out := good
		rep := *good.report
		rep.F = slices.Clone(rep.F)
		out.report = &rep
		edit(&out)
		return out
	}
	detected := core.ErrImplausibleKey
	for name, out := range map[string]outcome{
		"altered f": altered(func(o *outcome) { o.report.F[0]++ }),
		"altered key": altered(func(o *outcome) {
			priv := *o.priv
			priv.Fs = slices.Clone(priv.Fs)
			priv.Fs[0]++
			o.priv = &priv
		}),
		"forgery rejected": altered(func(o *outcome) { o.verifyErr = errors.New("bad norm") }),
		"undetected error": {err: errors.New("disk on fire"), report: good.report},
		"no report":        {err: detected},
	} {
		if _, err := check(v, out); err == nil {
			t.Errorf("%s: gate accepted it", name)
		}
	}

	failed, err := check(v, outcome{err: detected, report: good.report})
	if err != nil || failed.Recovered {
		t.Fatalf("detected failure: verdict %s, error %v", failed, err)
	}
	if vd.agree(failed) == nil {
		t.Error("a recovered victim may not later fail")
	}
	other := vd
	other.Key = []byte(strings.Replace(string(vd.Key), "[", "[1", 1))
	if vd.agree(other) == nil {
		t.Error("a victim's key bytes may not change between samples")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}

	res := &result{verdicts: make([]verdict, 1), layers: newLayers()}
	for traced, listed := range map[bool][]entry{false: spec.EndToEnd, true: spec.PerLayer} {
		printed := res.metrics(traced)
		if got := slices.Sorted(maps.Keys(printed)); len(got) != len(listed) {
			t.Errorf("trace %v prints %v, BENCHMARK.json lists %d metrics", traced, got, len(listed))
		}
		for _, e := range listed {
			if m, ok := printed[e.Name]; !ok || m.Unit != e.Unit {
				t.Errorf("%s (%s) is not printed with that unit", e.Name, e.Unit)
			}
		}
	}
	for i, m := range perLayer {
		if i >= len(spec.PerLayer) || spec.PerLayer[i] != (entry{m.name, m.unit, m.better}) {
			t.Errorf("per_layer[%d] should be %s %s %s", i, m.name, m.unit, m.better)
		}
	}
}

func TestProbe(t *testing.T) {
	p := startProbe()
	time.Sleep(5 * probeEvery)
	st := step{wall: 2 * time.Second, probe: p.stop()}
	if st.probe <= 0 {
		t.Fatalf("probe time %v", st.probe)
	}
	if got, want := st.ref(), 2*refProbe.Seconds()/st.probe.Seconds(); got != want {
		t.Errorf("ref() = %v, want %v", got, want)
	}
	// A timing shorter than probeEvery still has one probe computation.
	if d := startProbe().stop(); d <= 0 {
		t.Errorf("short timing: probe time %v", d)
	}
}
