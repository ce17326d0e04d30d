package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary act as tlcbench: TestMain runs
// main with the arguments after "--" when it is set.
const runMainEnv = "TLCBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"tlcbench"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tlcbench runs the command in a child process and returns its exit
// code.
func tlcbench(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "TMPDIR="+t.TempDir())
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		t.Logf("tlcbench %v: exit %d\n%s", args, exit.ExitCode(), out)
		return exit.ExitCode()
	default:
		t.Fatalf("tlcbench %v: %v\n%s", args, err, out)
		return -1
	}
}

func nonEmpty(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if st.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}

// TestProfilesInLedgerBenchMode: the ledger modes return before the
// experiment runner, and used to skip profiling silently.
func TestProfilesInLedgerBenchMode(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	if code := tlcbench(t, "-ledger-bench", "-ledger-appends", "64", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

// TestProfileSurvivesFatalExit: an error exit still stops the CPU
// profile, so the file holds a complete profile rather than nothing.
func TestProfileSurvivesFatalExit(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	if code := tlcbench(t, "-ledger-check", filepath.Join(dir, "missing.json"), "-cpuprofile", cpu); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	nonEmpty(t, cpu)
}
