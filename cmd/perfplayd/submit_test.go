package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"perfplay/internal/jobs"
	"perfplay/internal/pipeline"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// submitCLI runs `perfplayd submit args...` in process and returns its
// exit code, stdout and stderr.
func submitCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := runSubmit(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSubmitPrintsTheLocalReport: `perfplayd submit` prints the bytes a
// local pipeline.Run of the same spec renders, for a workload spec, a
// stored trace's digest, and a workload spec the submitted node
// redirects to an idle peer, which alone notes the redirect on stderr.
func TestSubmitPrintsTheLocalReport(t *testing.T) {
	_, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	digest := storeTrace(t, ts.URL, payload)
	recording, err := trace.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	simlarge, err := workload.ParseInputSize("simlarge")
	if err != nil {
		t.Fatal(err)
	}
	workloadReq := pipeline.Request{App: "pbzip2", Threads: 2, Scale: 0.2, Seed: 3, Input: simlarge, TopK: 5, Schemes: true}

	// The submitted node is full (a queue of one, occupied, no workers)
	// and names its one peer, the idle node above, in Retry-Peer.
	_, full := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}, Peers: []string{ts.URL}})
	if resp := postJSON(t, full.URL+"/analyze", goldenSpecs[0].spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy the full node: status %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name       string
		args       []string
		local      pipeline.Request
		redirected bool
	}{
		{"workload", []string{"-daemon", ts.URL, "-app", "pbzip2", "-scale", "0.2", "-seed", "3", "-schemes"}, workloadReq, false},
		{"trace digest", []string{"-daemon", ts.URL + "/", "-trace-digest", digest, "-top", "3", "-races"},
			pipeline.Request{Trace: recording, TraceDigest: digest, TopK: 3, DetectRaces: true}, false},
		{"redirected", []string{"-daemon", full.URL, "-app", "pbzip2", "-scale", "0.2", "-seed", "3", "-schemes"}, workloadReq, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := pipeline.Run(tc.local)
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := submitCLI(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != res.Report {
				t.Fatalf("stdout differs from the local report:\nwant:\n%s\ngot:\n%s", res.Report, stdout)
			}
			want := ""
			if tc.redirected {
				want = "perfplayd submit: redirected to " + ts.URL + " (submitted node was full)\n"
			}
			if stderr != want {
				t.Fatalf("stderr = %q, want %q", stderr, want)
			}
		})
	}
}

// TestSubmitFailedJobExitsNonZero: a job that fails on the node exits 1
// and prints the job's error, and nothing on stdout. The job is a digest
// whose blob is deleted while it waits in the queue.
func TestSubmitFailedJobExitsNonZero(t *testing.T) {
	srv, ts := saturatedVictim(t, Config{})
	meta, _, err := srv.corpus.Put(recordedPayload(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code           int
		stdout, stderr string
	}
	done := make(chan result, 1)
	go func() {
		code, stdout, stderr := submitCLI("-daemon", ts.URL, "-trace-digest", meta.Digest)
		done <- result{code, stdout, stderr}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.node.QueueLen() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the submitted job never reached the queue")
		}
	}
	if err := srv.corpus.Delete(meta.Digest); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	r := <-done
	jobErr, _ := waitDone(t, ts.URL, "job-1")["error"].(string)
	if r.code != 1 || r.stdout != "" || jobErr == "" ||
		r.stderr != "perfplayd submit: daemon job job-1 failed: "+jobErr+"\n" {
		t.Fatalf("exit %d, stdout %q, stderr %q; the job's error is %q", r.code, r.stdout, r.stderr, jobErr)
	}
}

// TestSubmitUnhonouredFlagIsAnError walks both job kinds × every flag
// `perfplayd submit` and `perfplay` define: adding one more flag either
// is honoured (listed here) or is a usage error naming the flag, never a
// spec that silently drops it. Only the command line is parsed; nothing
// is submitted.
func TestSubmitUnhonouredFlagIsAnError(t *testing.T) {
	const reporting = " top schemes races"
	// The flags submit defines, as its usage lists them.
	var usage bytes.Buffer
	if _, _, err := parseSubmit([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var defined []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			defined = append(defined, strings.Fields(name)[0])
		}
	}
	if len(defined) != 10 {
		t.Fatalf("perfplayd submit defines %d flags, the table was written for 10: %v", len(defined), defined)
	}
	// perfplay's flags that submit does not define: a local-only option
	// must not pass for a remote one.
	localOnly := strings.Fields("list replay sched case corpus save-trace trace trace-format le verify")
	values := map[string]string{"daemon": "http://h", "app": "mysql", "trace-digest": "sha256:0"}

	for _, m := range []struct {
		kind, selectors, accepted string
	}{
		{"workload", "daemon app", "daemon app threads input scale seed" + reporting},
		{"trace digest", "daemon trace-digest", "daemon trace-digest" + reporting},
	} {
		var selectors []string
		for _, name := range strings.Fields(m.selectors) {
			selectors = append(selectors, "-"+name+"="+values[name])
		}
		if _, _, err := parseSubmit(selectors, io.Discard); err != nil {
			t.Fatalf("%v: %v", selectors, err)
		}
		for _, name := range slices.Concat(defined, localOnly) {
			args := append(slices.Clone(selectors), "-"+name+"="+cmp.Or(values[name], "1"))
			_, _, err := parseSubmit(args, io.Discard)
			if slices.Contains(strings.Fields(m.accepted), name) {
				if err != nil {
					t.Errorf("%v: %v", args, err)
				}
			} else if err == nil {
				t.Errorf("%v: accepted, but a %s job drops -%s", args, m.kind, name)
			} else if !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("%v: error does not name the flag: %v", args, err)
			}
		}
	}

	for _, args := range [][]string{
		{},
		{"-app", "mysql"},
		{"-daemon", "http://h"},
		{"-daemon", "http://h", "-app", "mysql", "extra"},
	} {
		if _, _, err := parseSubmit(args, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
