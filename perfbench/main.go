// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the public API of the live charging stack
// (session, poc, protocol, ledger) or the simulator (experiment, sim),
// checks the outputs, and prints one JSON result line. run.sh builds
// it from source and runs it from the checkout root:
//
//	bash perfbench/run.sh --workload settle --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	settle    open loop, 400 settlements/s into an in-process session
//	          engine over loopback, ledger on (DirFS, SyncEvery 16)
//	saturate  closed loop, fixed window of outstanding sessions, same
//	          stack and ledger, fixed session count: capacity
//	ledger    no crypto, no engine, a MemFS: billing cycles of KindPoC
//	          appends, MarkSettled, sampled Audit and periodic Compact
//	city      experiment.RunCity at 12x40 UEs, 2 shards, seeded cycles
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it runs the workload untraced and then traced, at half the
// work each, and carries the per-layer metrics plus the tracing
// overhead. Every layer is measured from outside: by timing the
// benchmark's own calls into it, by wrappers around the interfaces it
// accepts (net.Conn, ledger.FS, the engine Recorder and Stopwatch) and
// by metrics.Default registry deltas. A failed output check prints the
// result with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// outDir holds everything a run writes (ledger directories, span
// dumps), relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// keyDir holds the fixed PEM key pairs; generating keys is
// non-deterministic in time and output, so no run ever does.
const keyDir = "perfbench/keys"

func main() {
	var (
		name    = flag.String("workload", "", "workload: settle, saturate, ledger or city")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "target length of the measured phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	keys, err := loadKeys(keyDir)
	if err != nil {
		return err
	}
	scratch := filepath.Join(outDir, name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch) //tlcvet:allow errdiscard — scratch cleanup; leftovers sit under .bench_build

	host := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	host.RefSignUSBefore = refSignUS(keys)

	var res result
	if traced {
		res, err = runTraced(w, keys, seed, seconds, scratch)
	} else {
		res, err = runUntraced(w, keys, seed, seconds, scratch)
	}
	if err != nil {
		return err
	}
	host.RefSignUSAfter = refSignUS(keys)
	if traced {
		res.Metrics["host.ref_sign_us"] = metric{(host.RefSignUSBefore + host.RefSignUSAfter) / 2, "us"}
	}
	// Host facts go on their own line ahead of the result, so a
	// reviewer can tell host drift from a regression.
	if err := printJSON(map[string]any{"host": host, "workload": name, "seed": seed}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

type hostInfo struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Go              string  `json:"go"`
	RefSignUSBefore float64 `json:"ref_sign_us_before"`
	RefSignUSAfter  float64 `json:"ref_sign_us_after"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// runUntraced produces the end-to-end metrics.
func runUntraced(w workload, keys *keySet, seed int64, seconds int, scratch string) (result, error) {
	o, err := w.run(runConfig{keys: keys, seed: seed, work: w.size(seconds), dir: scratch})
	if err != nil {
		return result{}, err
	}
	return o.endToEnd(), nil
}

// runTraced produces the per-layer metrics: an untraced pass and a
// traced pass over the same seed at half the work each, so the
// tracing overhead is the difference between two measured passes in
// one process.
func runTraced(w workload, keys *keySet, seed int64, seconds int, scratch string) (result, error) {
	work := w.size(seconds).half()
	plain, err := w.run(runConfig{keys: keys, seed: seed, work: work, dir: filepath.Join(scratch, "plain")})
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	o, err := w.run(runConfig{keys: keys, seed: seed, work: work, dir: filepath.Join(scratch, "traced"), tracer: tr})
	if err != nil {
		return result{}, err
	}
	res := o.perLayer()
	overhead := 0.0
	if base := plain.cpuMSPerOp(); base > 0 {
		overhead = 100 * (o.cpuMSPerOp() - base) / base
	}
	res.Metrics["trace.overhead_cpu_pct"] = metric{overhead, "%"}
	res.Correct = res.Correct && plain.correct()
	if err := tr.dump(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return result{}, err
	}
	return res, nil
}
