package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

// A stall confined to one window moves that window's quantiles only;
// a shift present in every window moves the figure.
func TestWindowed(t *testing.T) {
	lat := make([]float64, 5*latWindow)
	for i := range lat {
		lat[i] = 1
	}
	for i := 0; i < latWindow; i++ {
		lat[i] = 100 // the whole first window stalls
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := windowed(lat, q); got != 1 {
			t.Errorf("one-window stall: windowed(%v) = %v, want 1", q, got)
		}
	}
	for w := 0; w < 5; w++ {
		for i := 0; i < 20; i++ {
			lat[w*latWindow+100+i] = 7
		}
	}
	if got := windowed(lat, 0.99); got != 7 {
		t.Errorf("tail in every window: windowed p99 = %v, want 7", got)
	}
	short := []float64{1, 2, 3}
	if windowed(short, 0.99) != quantile(short, 0.99) {
		t.Error("short series is not the plain p99")
	}
}

// The settle accounting splits each session's latency (from its due
// time) into lateness, reply, client handle and ack, and the stage
// means reconcile with the end-to-end mean.
func TestLatenessAccounting(t *testing.T) {
	mk := func(sid uint64, due, sent, cda, hStart, hEnd, poc, done int64, state int) *liveSession {
		s := &liveSession{sid: sid, due: due, cda: cda, hStart: hStart, hEnd: hEnd, poc: poc, done: done, state: state}
		s.sent.Store(sent)
		return s
	}
	ms := int64(1e6)
	l := &liveRun{open: true, cfg: runConfig{}}
	l.measured = []*liveSession{
		// 1 ms late, 2 ms reply, 1 ms handle, 1 ms ack: 5 ms.
		mk(1, 0, 1*ms, 3*ms, 3*ms, 4*ms, 4*ms, 5*ms, 1),
		// on time, 1 ms reply, 1 ms handle, 1 ms ack: 3 ms.
		mk(2, 10*ms, 10*ms, 11*ms, 11*ms, 12*ms, 12*ms, 13*ms, 1),
		mk(3, 20*ms, 20*ms, 0, 0, 0, 0, 0, 2), // failed
	}
	l.sessions = l.measured
	o := newOutcome()
	l.account(o)
	if o.attempted != 3 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", o.attempted, o.failed)
	}
	if len(o.latMS) != 2 || o.latMS[0] != 5 || o.latMS[1] != 3 {
		t.Fatalf("latencies %v, want [5 3] ms", o.latMS)
	}
	if got := o.layers["loadgen.late_ms_p99"]; math.Abs(got-0.99) > 1e-9 {
		t.Errorf("late p99 = %v ms, want 0.99", got)
	}
	if got := o.layers["session.stage_gap_pct"]; math.Abs(got) > 1e-9 {
		t.Errorf("stage gap = %v%%, want 0", got)
	}
	if got := o.layers["session.reply_ms_p50"]; got != 1.5 {
		t.Errorf("reply p50 = %v ms, want 1.5", got)
	}
	if !o.correct() {
		t.Errorf("checks failed: %v", o.checks)
	}
	if got := stageGapPct(10.5, 10); got != 5 {
		t.Errorf("stageGapPct(10.5, 10) = %v, want 5", got)
	}
}

type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	RunSecs   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json declares exactly the metrics the benchmark prints,
// under valid names and units.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("invalid unit %q for %s", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name, "count")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		use(m.Name, m.Unit)
		if d := endToEndMetrics[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		use(m.Name, m.Unit)
		if d := perLayerMetrics[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// Each workload runs end to end at a tiny size, untraced and traced,
// passes its output checks and prints every declared metric. Run it
// under -race.
func TestSmoke(t *testing.T) {
	keys, err := loadKeys("keys")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			size := work{n: 24, tiny: true}
			if name == "ledger" || name == "city" {
				size.n = 1
			}
			dir := t.TempDir()
			o, err := w.run(runConfig{keys: keys, seed: 3, work: size, dir: filepath.Join(dir, "plain")})
			if err != nil {
				t.Fatal(err)
			}
			assertResult(t, o.endToEnd(), endToEndMetrics)

			tr := newTracer()
			o, err = w.run(runConfig{keys: keys, seed: 3, work: size, dir: filepath.Join(dir, "traced"), tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			res := o.perLayer()
			res.Metrics["trace.overhead_cpu_pct"] = metric{0, "%"}
			res.Metrics["host.ref_sign_us"] = metric{refSignUS(keys), "us"}
			assertResult(t, res, perLayerMetrics)
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if err := tr.dump(filepath.Join(dir, "spans.jsonl")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func assertResult(t *testing.T, res result, want []metricDef) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want unit %s and a finite value", d.name, m, ok, d.unit)
		}
	}
}
