package main

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tlc/internal/keyio"
	"tlc/internal/metrics"
)

// workload is one named traffic mix. size maps --seconds to a fixed
// amount of work, so a run's work never depends on how fast the host
// happens to be; rates are that work over the time it took.
type workload struct {
	name string
	size func(seconds int) work
	run  func(runConfig) (*outcome, error)
}

var workloads = map[string]workload{
	"settle":   {name: "settle", size: settleSize, run: runSettle},
	"saturate": {name: "saturate", size: saturateSize, run: runSaturate},
	"ledger":   {name: "ledger", size: ledgerSize, run: runLedger},
	"city":     {name: "city", size: citySize, run: runCity},
}

// work is a workload's size: n counts its unit (sessions, ledger
// epochs or city cycle pairs); tiny shrinks the unit itself and exists
// for the race-detector smoke tests only.
type work struct {
	n    int
	tiny bool
}

func (w work) half() work {
	w.n = max(1, w.n/2)
	return w
}

type runConfig struct {
	keys   *keySet
	seed   int64
	work   work
	dir    string
	tracer *tracer // nil: untraced
}

// keySet is the fixed edge and operator identity of every workload.
type keySet struct {
	edge, op *rsa.PrivateKey
}

func loadKeys(dir string) (*keySet, error) {
	edge, err := keyio.LoadPrivateKey(filepath.Join(dir, "edge.key"))
	if err != nil {
		return nil, fmt.Errorf("load edge key: %w", err)
	}
	op, err := keyio.LoadPrivateKey(filepath.Join(dir, "operator.key"))
	if err != nil {
		return nil, fmt.Errorf("load operator key: %w", err)
	}
	return &keySet{edge: edge, op: op}, nil
}

// refSignUS is the host drift probe: the median of stdlib RSA-1024
// PKCS#1 v1.5 signatures with a fixed key over a fixed digest, in µs.
// It touches no repository code, so when it moves between two runs the
// host moved, not the program.
func refSignUS(keys *keySet) float64 {
	digest := sha256.Sum256([]byte("perfbench host probe"))
	const n = 64
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if _, err := rsa.SignPKCS1v15(nil, keys.edge, crypto.SHA256, digest[:]); err != nil {
			return 0
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return quantile(us, 0.5)
}

// outcome is what one pass of a workload measured.
type outcome struct {
	// setupFixed is the one-off part of set-up in seconds; setupRounds
	// are the durations of its equal, repeated rounds.
	setupFixed  float64
	setupRounds []float64

	attempted, failed int64
	latMS             []float64 // one per completed op, in op order
	phase             phaseStats
	layers            map[string]float64
	checks            []error // failed output checks
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Errorf(format, args...))
	}
}

func (o *outcome) correct() bool { return len(o.checks) == 0 }

// setupS is the set-up time: the one-off part plus the repeated rounds
// counted at their median, so one stalled round does not set it.
func (o *outcome) setupS() float64 {
	return o.setupFixed + float64(len(o.setupRounds))*quantile(o.setupRounds, 0.5)
}

func (o *outcome) ops() float64 { return float64(o.attempted - o.failed) }

func (o *outcome) cpuMSPerOp() float64 {
	if o.ops() == 0 {
		return 0
	}
	return o.phase.cpuS * 1e3 / o.ops()
}

func (o *outcome) endToEnd() result {
	ops := math.Max(o.ops(), 1)
	m := map[string]metric{
		"setup_s":        {o.setupS(), "s"},
		"ops_per_s":      {o.ops() / o.phase.wallS, "1/s"},
		"latency_p50_ms": {windowed(o.latMS, 0.50), "ms"},
		"cpu_ms_per_op":  {o.cpuMSPerOp(), "ms"},
		"allocs_per_op":  {float64(o.phase.mallocs) / ops, "count"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"success_ratio":  {o.ops() / float64(max(o.attempted, 1)), "ratio"},
	}
	return o.result(m)
}

func (o *outcome) perLayer() result {
	m := map[string]metric{}
	for _, d := range perLayerMetrics {
		m[d.name] = metric{0, d.unit}
	}
	for k, v := range o.layers {
		d, ok := m[k]
		if !ok {
			panic("perfbench: layer metric " + k + " is not in perLayerMetrics")
		}
		m[k] = metric{v, d.Unit}
	}
	ops := math.Max(o.ops(), 1)
	m["runtime.gc_pause_ms"] = metric{float64(o.phase.gcPauseNs) / 1e6, "ms"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(o.phase.allocBytes) / ops, "B"}
	m["loadgen.latency_p99_ms"] = metric{windowed(o.latMS, 0.99), "ms"}
	return o.result(m)
}

func (o *outcome) result(m map[string]metric) result {
	for _, err := range o.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	return result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

type metricDef struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the catalogue BENCHMARK.json
// declares; a test keeps the two in step. The end-to-end latency tail
// (loadgen.latency_p99_ms) is a per-layer figure, without a bound: on a
// 2-vCPU VM host its run-to-run spread on settle is wider than any
// bound the benchmark may set, because idle vCPUs wake late for
// timers, loopback reads and fsync completions.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"}, {"success_ratio", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"session.reply_ms_p50", "ms"}, {"session.ack_ms_p50", "ms"},
	{"session.server_ms_mean", "ms"}, {"session.batch_mean", "count"},
	{"session.peak_active", "count"}, {"session.rejected", "count"},
	{"session.failed", "count"}, {"session.stage_gap_pct", "%"},
	{"poc.open_sign_us", "us"}, {"poc.client_handle_us", "us"},
	{"protocol.bytes_per_op", "B"}, {"protocol.frames_per_op", "count"},
	{"ledger.append_us_p50", "us"}, {"ledger.append_us_p99", "us"},
	{"ledger.fsync_ms_p50", "ms"}, {"ledger.fsync_ms_p99", "ms"},
	{"ledger.appends_per_fsync", "count"}, {"ledger.bytes_per_record", "B"},
	{"ledger.audit_ms_p50", "ms"}, {"ledger.compact_ms", "ms"},
	{"ledger.replay_records_per_s", "1/s"}, {"ledger.write_frac", "ratio"},
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"},
	{"sim.stall_ms", "ms"}, {"sim.shard_imbalance", "ratio"},
	{"netem.lane_packets", "count"},
	{"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_bytes_per_op", "B"},
	{"loadgen.latency_p99_ms", "ms"}, {"loadgen.late_ms_p99", "ms"},
	{"host.ref_sign_us", "us"},
	{"trace.overhead_cpu_pct", "%"},
}

// phaseStats are the process-wide costs of one measured phase.
type phaseStats struct {
	wallS, cpuS          float64
	mallocs, allocBytes  uint64
	gcPauseNs            uint64
	registry0, registry1 map[string]float64
}

// delta is a registry series' change over the phase.
func (p phaseStats) delta(name string) float64 { return p.registry1[name] - p.registry0[name] }

// ratio is delta(num)/delta(den), or 0 when den did not move.
func (p phaseStats) ratio(num, den string) float64 {
	d := p.delta(den)
	if d == 0 {
		return 0
	}
	return p.delta(num) / d
}

type meter struct {
	t0    time.Time
	cpu0  float64
	mem0  runtime.MemStats
	snap0 map[string]float64
}

// startMeter opens a measured phase. It collects garbage first so the
// phase does not pay for set-up's garbage.
func startMeter() *meter {
	runtime.GC()
	m := &meter{snap0: metrics.Default.Snapshot()}
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() phaseStats {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return phaseStats{
		wallS:      wall,
		cpuS:       cpu - m.cpu0,
		mallocs:    mem.Mallocs - m.mem0.Mallocs,
		allocBytes: mem.TotalAlloc - m.mem0.TotalAlloc,
		gcPauseNs:  mem.PauseTotalNs - m.mem0.PauseTotalNs,
		registry0:  m.snap0,
		registry1:  metrics.Default.Snapshot(),
	}
}

// cpuSeconds is the process's user+system time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latWindow is the op count of one latency window: the smallest that
// leaves ten samples beyond its 99th percentile.
const latWindow = 1000

// windowed is the median, over consecutive windows of latWindow ops,
// of each window's q-quantile; with fewer than two windows of ops it is
// the plain q-quantile. A host stall or a burst of contention from
// other tenants then moves the windows it covers, not the figure,
// while a cost the program adds throughout the run moves every window.
func windowed(lat []float64, q float64) float64 {
	if len(lat) < 2*latWindow {
		return quantile(lat, q)
	}
	var qs []float64
	for lo := 0; lo+latWindow <= len(lat); lo += latWindow {
		qs = append(qs, quantile(lat[lo:lo+latWindow], q))
	}
	return quantile(qs, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// registryValue reads one metrics.Default series.
func registryValue(name string) float64 { return metrics.Default.Snapshot()[name] }

// since is a monotonic timestamp in ns from base.
func since(base time.Time) int64 { return int64(time.Since(base)) }
