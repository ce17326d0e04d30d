package main

import (
	"fmt"
	"time"

	"tlc/internal/experiment"
)

// The city workload is the simulator alone: sim, netem and the city's
// cells do all the work and crypto does none. Cycles run in pairs on
// one seed; the second of a pair must reproduce the first exactly.
const (
	cityENodeBs  = 12
	cityUEs      = 40
	cityShards   = 2
	citySetupRun = 3 // warm-up cycles in set-up, counted at their median
	// cityPairSeconds sizes the pair count from --seconds: one 12x40
	// cycle takes about 3 s on a 2-CPU host.
	cityPairSeconds = 7
)

func citySize(seconds int) work { return work{n: max(1, (seconds+cityPairSeconds/2)/cityPairSeconds)} }

// cityDigest is what must repeat exactly for a seed.
type cityDigest struct {
	events, charged, delivered, lanePackets uint64
}

func runCity(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	tr := cfg.tracer
	cc := experiment.CityConfig{ENodeBs: cityENodeBs, UEsPerENB: cityUEs, Shards: cityShards, Stopwatch: stopwatch}
	warm := experiment.CityConfig{ENodeBs: cityENodeBs, UEsPerENB: cityUEs, Duration: 5 * time.Second, Shards: cityShards, Stopwatch: stopwatch}
	if cfg.work.tiny {
		cc = experiment.CityConfig{ENodeBs: 4, UEsPerENB: 8, Duration: 5 * time.Second, Shards: cityShards, Stopwatch: stopwatch}
		warm = cc
		warm.Duration = 2 * time.Second
	}

	// Set-up: short warm-up cycles of the same city, so the first
	// measured cycle does not pay for lazy initialisation.
	for r := 0; r < citySetupRun; r++ {
		warm.Seed = cfg.seed + int64(r)
		t0 := time.Now()
		if _, err := experiment.RunCity(warm); err != nil {
			return nil, fmt.Errorf("city warm-up: %w", err)
		}
		o.setupRounds = append(o.setupRounds, time.Since(t0).Seconds())
	}

	var events, stall, imbalance, lane []float64
	var simS float64
	m := startMeter()
	base := time.Now()
	for p := 0; p < cfg.work.n; p++ {
		cc.Seed = cfg.seed*1000 + int64(p)
		var first cityDigest
		for k := 0; k < 2; k++ {
			id := uint64(2*p + k)
			lanes0 := registryValue("netem_lane_packets_total")
			t0 := time.Now()
			res, err := experiment.RunCity(cc)
			wall := time.Since(t0)
			o.attempted++
			if err != nil {
				o.failed++
				o.check(false, "city cycle %d: %v", id, err)
				continue
			}
			o.latMS = append(o.latMS, float64(wall.Nanoseconds())/1e6)
			simS += wall.Seconds()
			d := cityDigest{
				events:      uint64(res.Metrics["events_fired"]),
				charged:     res.ChargedBytes,
				delivered:   res.DeliveredBytes,
				lanePackets: uint64(registryValue("netem_lane_packets_total") - lanes0),
			}
			if k == 0 {
				first = d
			} else {
				o.check(d == first, "city seed %d replayed %+v, first run %+v", cc.Seed, d, first)
			}
			events = append(events, float64(d.events))
			lane = append(lane, float64(d.lanePackets))
			st, maxEv, sumEv := 0.0, 0.0, 0.0
			for _, s := range res.Shards {
				st += s.StallMS
				maxEv = max(maxEv, float64(s.EventsFired))
				sumEv += float64(s.EventsFired)
			}
			stall = append(stall, st)
			if sumEv > 0 {
				imbalance = append(imbalance, maxEv/(sumEv/float64(len(res.Shards))))
			}
			if tr != nil {
				off := int64(base.Sub(tr.base))
				tr.add(id, "city.cycle", "", off+int64(t0.Sub(base)), off+int64(t0.Sub(base)+wall))
			}
		}
	}
	o.phase = m.stop()

	o.layers["sim.events"] = mean(events)
	if simS > 0 {
		o.layers["sim.events_per_s"] = sum(events) / simS
	}
	o.layers["sim.stall_ms"] = mean(stall)
	o.layers["sim.shard_imbalance"] = mean(imbalance)
	o.layers["netem.lane_packets"] = mean(lane)
	return o, nil
}

// stopwatch is the wall-clock probe the city uses for per-shard stall
// accounting.
func stopwatch() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}
