package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/wikistale/wikistale/internal/obs/runtimestats"
)

// system is the server a workload drives: a staleserve child process in
// end-to-end runs (proc), the same wiring in-process in traced runs
// (inproc).
type system interface {
	// get issues one control-plane request: readiness polls and checks.
	get(path string) (int, []byte, error)
	// do issues the workload's load requests.
	do() doFunc
	// since returns the time elapsed since the system was started.
	since() time.Duration
	// alive returns an error once the system has ended on its own.
	alive() error
	// finish records the metrics a run takes from the system at its end,
	// then shuts the system down gracefully.
	finish(ctx context.Context, r *runner) error
	// kill stops the system at once. Both kill and finish return only
	// after it has ended.
	kill()
}

// proc is staleserve running as a child process with default flags,
// stderr and stdout going to a log file.
type proc struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	exited chan struct{} // closed once cmd.Wait returned
	ctl    *http.Client
	load   *http.Client
}

// startProc starts bin with args plus a free loopback -addr.
func startProc(bin, logPath string, conns int, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive an interrupted benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		ctl:    &http.Client{Timeout: 10 * time.Second},
		load:   loadClient(conns),
	}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status is the log's business
		close(p.exited)
	}()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *proc) get(path string) (int, []byte, error) {
	if err := p.alive(); err != nil {
		return 0, nil, err
	}
	return httpGet(p.ctl, p.base+path, true)
}

func (p *proc) alive() error {
	select {
	case <-p.exited:
		return fmt.Errorf("staleserve exited (see its log)")
	default:
		return nil
	}
}

func (p *proc) do() doFunc           { return httpDo(p.load, p.base) }
func (p *proc) since() time.Duration { return time.Since(p.start) }

func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only when it already exited
	<-p.exited
}

// finish records the server's live heap and shuts it down.
func (p *proc) finish(ctx context.Context, r *runner) error {
	heap, err := p.liveHeapMiB(ctx)
	if err != nil {
		p.kill()
		return err
	}
	r.set("heap_mb", "MiB", heap)
	return p.stop()
}

func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("staleserve did not shut down within 15s of SIGTERM")
	}
}

// liveHeapMiB is the server's live Go heap once it is quiet: no retrain
// finished within the last second and every retrained epoch's snapshot is
// written, so no training or encoding buffers are in flight. A heap
// profile with gc=1 then runs a full collection, after which /metrics
// reports only live objects. Peak RSS would depend on where collections
// happened to fall, which varies from run to run by a fifth.
func (p *proc) liveHeapMiB(ctx context.Context) (float64, error) {
	const (
		retrains  = "wikistale_ingest_retrains_total"
		snapshots = "wikistale_epochstore_snapshots_total"
		failed    = "wikistale_epochstore_snapshot_errors_total"
	)
	lastRetrains, quietSince := -1.0, time.Now()
	if _, err := waitFor(ctx, p, 100*time.Millisecond, catchupTimeout, "a quiet server", func() (bool, error) {
		m, err := p.metrics()
		if m[retrains] != lastRetrains || m[snapshots]+m[failed] < m[retrains] {
			lastRetrains, quietSince = m[retrains], time.Now()
		}
		return err == nil && time.Since(quietSince) >= time.Second, err
	}); err != nil {
		return 0, err
	}
	if status, _, err := p.get("/debug/pprof/heap?gc=1"); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("forcing a collection: status %d, %v", status, err)
	}
	m, err := p.metrics()
	if err != nil {
		return 0, err
	}
	heap, ok := m[runtimestats.HeapLiveBytes]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", runtimestats.HeapLiveBytes)
	}
	return heap / (1 << 20), nil
}

// metrics reads the unlabelled series of the server's /metrics.
func (p *proc) metrics() (map[string]float64, error) {
	status, body, err := p.get("/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d, %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// waitFor polls cond every interval until it holds, returning the system's
// age at that moment.
func waitFor(ctx context.Context, sys system, interval, timeout time.Duration, what string, cond func() (bool, error)) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if ok {
			return sys.since(), nil
		}
		if err := sys.alive(); err != nil {
			return 0, fmt.Errorf("waiting for %s: %w", what, err)
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("waiting for %s: timed out after %v (last error: %v)", what, timeout, err)
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return 0, err
		}
	}
}

// readyEpoch returns the serving epoch from /readyz, 0 while not ready.
func readyEpoch(sys system) (uint64, error) {
	status, body, err := sys.get("/readyz")
	if err != nil || status != http.StatusOK {
		return 0, err
	}
	var r struct {
		Epoch uint64 `json:"epoch"`
	}
	err = json.Unmarshal(body, &r)
	return r.Epoch, err
}

// waitEpoch waits until the system serves epoch min or later.
func waitEpoch(ctx context.Context, sys system, min uint64, timeout time.Duration) (time.Duration, error) {
	return waitFor(ctx, sys, 5*time.Millisecond, timeout, fmt.Sprintf("epoch %d", min), func() (bool, error) {
		ep, err := readyEpoch(sys)
		return ep >= min, err
	})
}
