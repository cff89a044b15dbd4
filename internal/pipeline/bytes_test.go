package pipeline

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// bytesChildEnv names the app a re-executed test binary analyzes once
// and reports the heap use of, instead of running the tests.
const bytesChildEnv = "PERFPLAY_JOB_BYTES_APP"

// jobBytesScale is the scale each app is recorded at: a job of about
// 15k events, the size of a cli-ulcp recording.
var jobBytesScale = map[string]float64{"mysql": 0.5, "openldap": 0.5, "fluidanimate": 0.04}

// TestJobBytesAreExact: the bytes and objects one forked pipeline.Run
// allocates in a fresh process are a function of its input, up to the
// Go runtime's per-processor caches. Eight fresh processes per app (this
// test binary, re-executed) and a process that runs the fork's branches
// on one processor (GOMAXPROCS=1) must read within jobBytesSlack of one
// another. Each process records the trace first and counts only the
// job, as a CLI run over a stored trace pays it.
//
// What is left is the runtime's, not the job's: fmt's printer pool,
// the goroutine and waiter descriptors and sync.Pool's per-processor
// arrays are cached per processor, so whether the report's formatting
// or the fork's two goroutines find one free depends on where the
// scheduler ran them. Over 20 fresh processes per app (2 vCPUs) the
// forked runs spread by 968 B / 4 objects (mysql ×0.5), 1,368 B / 7
// (openldap ×0.5) and 1,632 B / 9 (fluidanimate ×0.04), and forked and
// one-processor runs together by at most 2,384 B / 10; one-processor
// runs alone read the same to 64 B / 1 object. Beside three busy loops,
// 20 processes spread by at most 1,600 B / 10 objects, with the
// collector on or off; under the whole test suite one run of this test
// read 6,880 B / 10. The bound is for the pool's per-processor shards:
// when quantify took its engine from the pool, a process whose job came
// back from the fork on the other processor allocated a second engine,
// and these traces spread by 100–400 KB.
func TestJobBytesAreExact(t *testing.T) {
	if app := os.Getenv(bytesChildEnv); app != "" {
		reportJobBytes(t, app)
		return
	}
	switch {
	case testing.Short():
		t.Skip("re-executes the test binary 27 times")
	case raceBuild:
		t.Skip("the race detector allocates for itself")
	}
	for _, app := range []string{"mysql", "openldap", "fluidanimate"} {
		var lo, hi [2]uint64
		for i := 0; i <= 8; i++ {
			got := jobBytesChild(t, app, i == 8)
			for k := range got {
				if i == 0 || got[k] < lo[k] {
					lo[k] = got[k]
				}
				if i == 0 || got[k] > hi[k] {
					hi[k] = got[k]
				}
			}
		}
		if hi[0]-lo[0] > jobBytesSlack[0] || hi[1]-lo[1] > jobBytesSlack[1] {
			t.Errorf("%s: 9 fresh processes allocated %d–%d B in %d–%d objects per job; want a spread within %d B and %d objects",
				app, lo[0], hi[0], lo[1], hi[1], jobBytesSlack[0], jobBytesSlack[1])
		}
		t.Logf("%s ×%v: %d–%d B, %d–%d objects per job", app, jobBytesScale[app], lo[0], hi[0], lo[1], hi[1])
	}
}

// jobBytesSlack bounds the spread of bytes and objects per job across
// fresh processes: the runtime's caches (see TestJobBytesAreExact), with
// headroom over the largest spread measured.
var jobBytesSlack = [2]uint64{16 << 10, 32}

// jobBytesChild runs one fresh process over app and returns the bytes
// and objects its job allocated.
func jobBytesChild(t *testing.T, app string, serial bool) [2]uint64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestJobBytesAreExact$", "-test.count=1")
	cmd.Env = append(os.Environ(), bytesChildEnv+"="+app)
	if serial {
		cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s child: %v\n%s", app, err, out)
	}
	var got [2]uint64
	for _, line := range strings.Split(string(out), "\n") {
		if n, _ := fmt.Sscanf(line, "bytes=%d objects=%d", &got[0], &got[1]); n == 2 {
			return got
		}
	}
	t.Fatalf("%s child printed no count:\n%s", app, out)
	return got
}

// reportJobBytes is the child's side: record app, then print what one
// pipeline.Run over the recording allocates.
func reportJobBytes(t *testing.T, app string) {
	p := workload.MustGet(app).Build(workload.Config{Threads: 4, Scale: jobBytesScale[app], Seed: 42})
	tr := sim.Run(p, sim.Config{Seed: 42}).Trace
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(Request{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fmt.Printf("bytes=%d objects=%d\n", after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
}
