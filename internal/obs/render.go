package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"falcondown/internal/atomicfile"
)

// MetricSnapshot is one metric's point-in-time value, JSON-serializable
// for /metricsz and the flight record.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Type    MetricType       `json:"type"`
	Labels  []Label          `json:"labels,omitempty"`
	Value   float64          `json:"value,omitempty"`
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON emits +Inf as the string "+Inf" (JSON has no infinity).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both the numeric and the "+Inf" encodings.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	s := strings.Trim(string(raw.LE), `"`)
	if s == "+Inf" {
		b.LE = math.Inf(1)
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	b.LE = v
	return nil
}

// Snapshot returns every metric's current value in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	ms := r.sorted()
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.snapshot())
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Families sharing a name emit one
// HELP/TYPE header, and histograms expand to _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, m := range r.sorted() {
		s := m.snapshot()
		if !seen[s.Name] {
			seen[s.Name] = true
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Type)
		}
		switch s.Type {
		case TypeHistogram:
			for _, bk := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(bk.LE, 1) {
					le = formatFloat(bk.LE)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name,
					renderLabels(s.Labels, Label{Name: "le", Value: le}), bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, renderLabels(s.Labels), formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, renderLabels(s.Labels), s.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, renderLabels(s.Labels), formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// renderLabels renders {k="v",...} or "" for an empty set. Extra labels
// (the histogram le) are appended after the metric's own.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf(`%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ---------------------------------------------------------------------
// Flight record

// FlightRecord is the end-of-run observability artifact: one JSON file
// with build identity, wall-clock, and the full metric snapshot. The
// attack cmd writes it under -obs-json; the campaign runner drops one
// next to result.json. It is diagnostic output only — deliberately
// excluded from the byte-identity artifact comparisons, since timings
// differ run to run.
type FlightRecord struct {
	Command    string           `json:"command"`
	RecordedAt time.Time        `json:"recorded_at"`
	UptimeSec  float64          `json:"uptime_seconds"`
	GoVersion  string           `json:"go_version"`
	Revision   string           `json:"revision,omitempty"`
	Metrics    []MetricSnapshot `json:"metrics"`
}

var processStart = time.Now()

// Uptime returns seconds since process start.
func Uptime() float64 { return time.Since(processStart).Seconds() }

// BuildRevision returns the VCS revision baked into the binary, or "".
func BuildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// NewFlightRecord snapshots the registry into a flight record for cmd.
func (r *Registry) NewFlightRecord(cmd string) FlightRecord {
	return FlightRecord{
		Command:    cmd,
		RecordedAt: time.Now().UTC(),
		UptimeSec:  Uptime(),
		GoVersion:  runtime.Version(),
		Revision:   BuildRevision(),
		Metrics:    r.Snapshot(),
	}
}

// WriteFlightRecord atomically writes the registry snapshot as indented
// JSON at path (temp file, fsync and rename, so readers never see a torn
// file).
func (r *Registry) WriteFlightRecord(cmd, path string) error {
	data, err := json.MarshalIndent(r.NewFlightRecord(cmd), "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}

// FlightRecordPath places the flight record next to a sibling artifact
// (e.g. result.json -> obs.json in the same directory).
func FlightRecordPath(sibling, name string) string {
	return filepath.Join(filepath.Dir(sibling), name)
}
