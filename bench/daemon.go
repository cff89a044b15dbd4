package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout is how long one op may take before it counts as failed.
const opTimeout = 60 * time.Second

// daemon is one perfplayd subprocess under test, started with default
// flags apart from its address and corpus directory (the journal is
// therefore on, with real fsync).
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
	bootS  float64       // spawn to first 200 from /healthz

	bootRSSMB float64
}

// live holds the daemons that are running, so that a signal to the
// harness can stop them before it exits.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// stopAll stops every running daemon; the signal handler's exit path.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots perfplayd over a fresh corpus under dir and waits
// for /healthz. The daemon's stderr goes to logPath.
func startDaemon(bin, dir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-corpus", filepath.Join(dir, "corpus"))
	cmd.Stderr = logf
	cmd.Stdout = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start perfplayd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, log: logf, exited: make(chan struct{})}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState by whoever saw exited close
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("perfplayd exited during boot (%v); see %s", cmd.ProcessState, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("perfplayd not healthy within 10s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.bootS = time.Since(start).Seconds()
	d.bootRSSMB, _ = procStatusMB(cmd.Process.Pid, "VmRSS") // 0 only if the daemon died, which the first op reports
	return d, nil
}

// alive reports an error if the daemon has exited on its own.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("perfplayd exited early (%v)", d.cmd.ProcessState)
	default:
		return nil
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s), waits
// for it, and removes its corpus and journal. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited races are settled by the wait below
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
	os.RemoveAll(d.dir)
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// procCPU returns the process's user+system CPU seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// after it are space-separated, utime and stime being the 14th and
	// 15th of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ is 100 on every Linux Go supports
	return (ut + st) / clockTicks, nil
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status in MiB.
func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", field, pid)
}

// scrape fetches /metrics as a map from series (name plus label set, as
// printed) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// parseScrape reads Prometheus text exposition into series → value.
// telemetry.ParseExposition checks the format but drops the values, so
// the values are read here.
func parseScrape(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after−before for one series (a series absent before counts
// from zero).
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// jobJSON is the part of GET /jobs/{id} the harness reads.
type jobJSON struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Error    string `json:"error"`
	CacheHit bool   `json:"cache_hit"`
	Report   string `json:"report"`
	Timings  []struct {
		Stage  string `json:"stage"`
		WallNS int64  `json:"wall_ns"`
	} `json:"timings"`
}

// client is one closed-loop caller: it owns one connection and sends its
// next request only after the previous reply.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: opTimeout + 5*time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return nil
}

// opResult is what one daemon op observed.
type opResult struct {
	job      jobJSON
	uploadMS float64
	submitMS float64
	pollMS   float64
}

// runOp performs one full exchange: optional POST /traces, POST
// /analyze by digest, long-poll GET /jobs/{id} to a terminal state.
// Client-side spans go to rec under opSpan.
func (c *client) runOp(rec *recorder, opID, opSpan int, in *input, o opSpec) (res opResult, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if o.Upload {
		t := time.Now()
		sp := rec.begin(opID, opSpan, "perfplayd.upload")
		err = c.do(ctx, http.MethodPost, "/traces", "application/octet-stream", in.data, nil)
		rec.end(sp)
		res.uploadMS = ms(time.Since(t))
		if err != nil {
			return res, err
		}
	}
	spec, err := json.Marshal(map[string]any{"trace": in.digest, "schemes": o.Schemes, "races": o.Races})
	if err != nil {
		return res, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	t := time.Now()
	sp := rec.begin(opID, opSpan, "perfplayd.submit")
	err = c.do(ctx, http.MethodPost, "/analyze", "application/json", spec, &accepted)
	rec.end(sp)
	res.submitMS = ms(time.Since(t))
	if err != nil {
		return res, err
	}
	t = time.Now()
	sp = rec.begin(opID, opSpan, "perfplayd.poll")
	defer func() {
		rec.end(sp)
		res.pollMS = ms(time.Since(t))
	}()
	for {
		if err := c.do(ctx, http.MethodGet, "/jobs/"+accepted.ID+"?wait=30s", "", nil, &res.job); err != nil {
			return res, err
		}
		switch res.job.Status {
		case "done":
			return res, nil
		case "failed":
			return res, fmt.Errorf("job %s failed: %s", accepted.ID, res.job.Error)
		case "queued", "running":
		default:
			return res, fmt.Errorf("job %s: unknown status %q", accepted.ID, res.job.Status)
		}
	}
}

// serverTimeline is what the daemon's own spans say about one job.
type serverTimeline struct{ queueMS, executeMS float64 }

// serverSpans fetches the daemon's own span timeline for a job and
// attaches it under parent, so a traced op shows queue wait, execution
// and each pipeline stage as children of the client's op.
func (c *client) serverSpans(rec *recorder, opID, parent int, jobID string) (*serverTimeline, error) {
	var tl struct {
		Spans []struct {
			ID     string    `json:"id"`
			Parent string    `json:"parent"`
			Name   string    `json:"name"`
			Start  time.Time `json:"start"`
			End    time.Time `json:"end"`
		} `json:"spans"`
	}
	if err := c.do(context.Background(), http.MethodGet, "/jobs/"+jobID+"/trace", "", nil, &tl); err != nil {
		return nil, err
	}
	out := &serverTimeline{}
	for _, s := range tl.Spans {
		switch s.Name {
		case "queue_wait":
			out.queueMS = ms(s.End.Sub(s.Start))
		case "execute":
			out.executeMS = ms(s.End.Sub(s.Start))
		}
	}
	ids := map[string]int{}
	// Parents precede children in the daemon's reply only by chance, so
	// place roots first and then whatever hangs off a placed span.
	for placed := true; placed; {
		placed = false
		for _, s := range tl.Spans {
			if _, done := ids[s.ID]; done {
				continue
			}
			p, ok := ids[s.Parent]
			if s.Parent == "" {
				p, ok = parent, true
			}
			if ok {
				ids[s.ID] = rec.add(opID, p, "server."+s.Name, s.Start, s.End)
				placed = true
			}
		}
	}
	if len(ids) != len(tl.Spans) {
		return nil, errors.New("job trace has spans whose parent is missing")
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
