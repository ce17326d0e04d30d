package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tlc/internal/sim"
)

// stormyCityConfig is a small city with mobility turned up far enough
// that handovers, X2 forwarding and storms all fire within a few
// simulated seconds.
func stormyCityConfig(shards int) CityConfig {
	return CityConfig{
		ENodeBs: 4, UEsPerENB: 8,
		Duration:      8 * time.Second,
		Seed:          7,
		Shards:        shards,
		MoveCheckMean: 800 * time.Millisecond,
		MoveProb:      0.3,
		StormPeriod:   2 * time.Second,
		StormLen:      500 * time.Millisecond,
		ForwardWindow: time.Second,
		TraceEvents:   true,
	}
}

func assertCityEqual(t *testing.T, label string, got, want *CityResult) {
	t.Helper()
	if got.Text != want.Text {
		t.Fatalf("%s: Text differs\n--- got ---\n%s\n--- want ---\n%s", label, got.Text, want.Text)
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("%s: metric key sets differ: %d vs %d", label, len(got.Metrics), len(want.Metrics))
	}
	for k, v := range want.Metrics {
		if got.Metrics[k] != v { // exact float equality: same draws, same order, same arithmetic
			t.Errorf("%s: metric %q = %v, want %v", label, k, got.Metrics[k], v)
		}
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Errorf("%s: cell %d stats %+v, want %+v", label, i, got.Cells[i], want.Cells[i])
		}
	}
}

// TestShardParityCityAcrossShardCounts is the tentpole golden: the
// city scenario produces byte-identical Text and exactly equal
// metrics, per-cell counters and fired-event trace hashes at shard
// counts {0, 1, 2, 4, NumCPU} (NumCPU capped at the eNodeB count —
// above it RunCity errors by design).
func TestShardParityCityAcrossShardCounts(t *testing.T) {
	base, err := RunCity(stormyCityConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise the cross-shard machinery,
	// or parity would hold vacuously.
	if base.Handovers == 0 || base.Metrics["x2_lane_pkts"] == 0 || base.Metrics["x2_forwarded_pkts"] == 0 {
		t.Fatalf("scenario too quiet: handovers=%d lane=%v fwd=%v",
			base.Handovers, base.Metrics["x2_lane_pkts"], base.Metrics["x2_forwarded_pkts"])
	}
	if base.ChargedBytes <= base.DeliveredBytes {
		t.Fatalf("no charging gap: charged=%d delivered=%d", base.ChargedBytes, base.DeliveredBytes)
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n < 4 && n >= 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		got, err := RunCity(stormyCityConfig(w))
		if err != nil {
			t.Fatalf("shards=%d: %v", w, err)
		}
		assertCityEqual(t, "shards="+itoa(w), got, base)
		if len(got.Shards) != w {
			t.Errorf("shards=%d: %d worker stats, want %d", w, len(got.Shards), w)
		}
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// TestShardParityRandomCityDifferential is the randomized
// shard-vs-sequential differential: random topologies, seeds and
// shard counts must all replay the sequential run's per-partition
// fired-event traces exactly.
func TestShardParityRandomCityDifferential(t *testing.T) {
	rng := sim.NewRNG(99)
	for iter := 0; iter < 4; iter++ {
		cfg := CityConfig{
			ENodeBs:       2 + rng.Intn(4),
			UEsPerENB:     1 + rng.Intn(4),
			Duration:      time.Duration(1500+rng.Intn(1500)) * time.Millisecond,
			Seed:          rng.Int63(),
			X2Delay:       time.Duration(5+rng.Intn(30)) * time.Millisecond,
			MoveCheckMean: time.Duration(200+rng.Intn(800)) * time.Millisecond,
			MoveProb:      0.1 + 0.4*rng.Float64(),
			TraceEvents:   true,
		}
		base, err := RunCity(cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		w := 1 + rng.Intn(cfg.ENodeBs)
		cfg.Shards = w
		got, err := RunCity(cfg)
		if err != nil {
			t.Fatalf("iter %d shards=%d: %v", iter, w, err)
		}
		for i := range base.Cells {
			if got.Cells[i].FiredTraceHash != base.Cells[i].FiredTraceHash {
				t.Errorf("iter %d (enbs=%d ues=%d shards=%d): cell %d trace %#x != sequential %#x",
					iter, cfg.ENodeBs, cfg.UEsPerENB, w, i,
					got.Cells[i].FiredTraceHash, base.Cells[i].FiredTraceHash)
			}
			if got.Cells[i].EventsFired != base.Cells[i].EventsFired {
				t.Errorf("iter %d: cell %d fired %d events, sequential %d",
					iter, i, got.Cells[i].EventsFired, base.Cells[i].EventsFired)
			}
		}
		assertCityEqual(t, "differential", got, base)
	}
}

// TestCityRejectsBadShardCounts pins the no-silent-clamp contract at
// the RunCity layer (tlcbench turns this into a non-zero exit).
func TestCityRejectsBadShardCounts(t *testing.T) {
	cfg := CityConfig{ENodeBs: 4, UEsPerENB: 2, Duration: time.Second, Shards: 5}
	if _, err := RunCity(cfg); err == nil {
		t.Fatal("5 shards on 4 eNodeBs: want error, got nil")
	} else if !strings.Contains(err.Error(), "refusing to clamp") {
		t.Fatalf("error %q should refuse to clamp", err)
	}
	cfg.Shards = -1
	if _, err := RunCity(cfg); err == nil {
		t.Fatal("negative shards: want error, got nil")
	}
}

// TestCityRunnerReportsShardStats checks the experiment-facing City
// runner: worker stats surface in Result.Shards, and the
// wall-clock-dependent stall numbers stay out of Metrics and Text.
func TestCityRunnerReportsShardStats(t *testing.T) {
	opt := Options{Duration: 2 * time.Second, Shards: 2, Stopwatch: fixedStopwatch(time.Millisecond)}
	res := City(opt)
	if res.ID != "city" {
		t.Fatalf("ID = %q", res.ID)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("%d shard stats, want 2", len(res.Shards))
	}
	total := 0
	for _, st := range res.Shards {
		total += st.Partitions
	}
	if total != 4 { // CityScale gives 4 eNodeBs for quick durations
		t.Fatalf("shard stats cover %d partitions, want 4", total)
	}
	if _, ok := res.Metrics["events_fired"]; !ok {
		t.Fatal("events_fired missing from metrics")
	}
	for k := range res.Metrics {
		if strings.Contains(k, "stall") {
			t.Fatalf("wall-clock stall leaked into deterministic metrics as %q", k)
		}
	}
	if strings.Contains(res.Text, "stall") {
		t.Fatal("wall-clock stall leaked into deterministic text")
	}
}

// TestShardParityFig12BytesAcrossShardOptions is the satellite
// regression for the metrics-merge rule: regenerating Figure 12 with
// any combination of sweep workers and shard options must yield
// byte-identical text and exactly equal metrics — per-cell histogram
// contributions merge in partition order, never completion order.
func TestShardParityFig12BytesAcrossShardOptions(t *testing.T) {
	opt := Quick()
	opt.Stopwatch = fixedStopwatch(time.Millisecond)
	base := Fig12(opt)
	for _, variant := range []Options{
		{Workers: 4},
		{Shards: 4},
		{Workers: 4, Shards: 4},
	} {
		o := Quick()
		o.Stopwatch = fixedStopwatch(time.Millisecond)
		o.Workers = variant.Workers
		o.Shards = variant.Shards
		got := Fig12(o)
		if got.Text != base.Text {
			t.Fatalf("workers=%d shards=%d: Fig12 text differs from sequential",
				variant.Workers, variant.Shards)
		}
		for k, v := range base.Metrics {
			if got.Metrics[k] != v {
				t.Errorf("workers=%d shards=%d: metric %q = %v, want %v",
					variant.Workers, variant.Shards, k, got.Metrics[k], v)
			}
		}
	}
}

// TestShardParityCityCDFUnaffectedByMergeLaziness guards the render
// path itself: rendering the city CDF (which sorts lazily) from the
// same run twice, and across shard counts, stays byte-identical.
func TestShardParityCityCDFUnaffectedByMergeLaziness(t *testing.T) {
	cfg := stormyCityConfig(0)
	cfg.Duration = 3 * time.Second
	a, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	b, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ia := strings.Index(a.Text, "per-UE charging-gap ratio")
	ib := strings.Index(b.Text, "per-UE charging-gap ratio")
	if ia < 0 || ib < 0 {
		t.Fatal("CDF section missing from city text")
	}
	if a.Text[ia:] != b.Text[ib:] {
		t.Fatalf("CDF bytes differ between shards 0 and 4:\n%s\nvs\n%s", a.Text[ia:], b.Text[ib:])
	}
}

// TestShardParityCityPinnedGolden pins a small traced city to the
// exact counts and per-cell fired-event trace hashes the pure-heap
// engine produced, at shard counts 0 and 2. The other parity tests
// compare shard counts with each other, so an engine change that
// reorders events the same way at every shard count would pass them;
// this one would not.
func TestShardParityCityPinnedGolden(t *testing.T) {
	type cellGolden struct {
		fired uint64
		hash  uint64
	}
	want := []cellGolden{
		{29984, 0xd28de76dc10dc299},
		{20794, 0xee2b00cd20e2cf4c},
		{25504, 0x0b385bab11eed696},
		{41578, 0xeba378f39a002de9},
	}
	for _, shards := range []int{0, 2} {
		cfg := stormyCityConfig(shards)
		cfg.Duration = 5 * time.Second
		res, err := RunCity(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var lane uint64
		for _, c := range res.Cells {
			lane += c.LanePackets
		}
		if got := res.Metrics["events_fired"]; got != 117860 {
			t.Errorf("shards=%d: events_fired = %v, want 117860", shards, got)
		}
		if res.ChargedBytes != 38664803 || res.DeliveredBytes != 35717835 {
			t.Errorf("shards=%d: charged/delivered = %d/%d, want 38664803/35717835",
				shards, res.ChargedBytes, res.DeliveredBytes)
		}
		if lane != 153 {
			t.Errorf("shards=%d: lane packets = %d, want 153", shards, lane)
		}
		if len(res.Cells) != len(want) {
			t.Fatalf("shards=%d: %d cells, want %d", shards, len(res.Cells), len(want))
		}
		for i, w := range want {
			c := res.Cells[i]
			if c.EventsFired != w.fired || c.FiredTraceHash != w.hash {
				t.Errorf("shards=%d: cell %d fired %d trace %#x, want %d %#x",
					shards, i, c.EventsFired, c.FiredTraceHash, w.fired, w.hash)
			}
		}
	}
}
