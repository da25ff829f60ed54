package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one ikrqd process serving a single baked venue on an ephemeral
// loopback port. Every daemon a run starts is stopped by stop or kill on
// every exit path (the run keeps a list and kills whatever is still alive).
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>

	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // the process's exit status, valid after exited

	logMu sync.Mutex
	log   bytes.Buffer
}

// startDaemon launches ikrqd with -warm and default limits and returns once
// it has logged its listen address. The port is picked by the kernel
// (-listen 127.0.0.1:0) and read back from that log line.
func startDaemon(ctx context.Context, bin, snap string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-warm", "-venue", venueName+"="+snap)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ikrqd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if _, rest, ok := strings.Cut(line, " venues on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("ikrqd exited during start-up (%v):\n%s", d.waitErr, d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("ikrqd did not report a listen address within 60s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// waitReady polls /healthz until it answers 200, then sends the warm query
// and requires a 200 for it too.
func (d *daemon) waitReady(ctx context.Context, c *http.Client, warm *op) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ikrqd /healthz never answered 200 (last error %v)", err)
		}
		select {
		case <-d.exited:
			return fmt.Errorf("ikrqd exited before /healthz answered:\n%s", d.logText())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
	status, body, err := send(ctx, c, d.base, warm)
	if err != nil {
		return fmt.Errorf("warm query: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm query answered %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// stop sends SIGTERM and requires the drain to exit 0 within grace.
func (d *daemon) stop(grace time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-d.exited:
		default:
			return fmt.Errorf("signalling ikrqd: %w", err)
		}
	}
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.kill()
		return fmt.Errorf("ikrqd did not drain within %v", grace)
	}
	if d.waitErr != nil {
		return fmt.Errorf("ikrqd drain exited with %v:\n%s", d.waitErr, d.logText())
	}
	return nil
}

// kill stops the process unconditionally and waits until it is reaped.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // already exiting is fine; exited is awaited below
	<-d.exited
}

// peakRSSMiB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// daemons tracks every process a run started, so teardown can kill
// whatever is still alive on any exit path. One goroutine owns it.
type daemons struct {
	live []*daemon
}

func (ds *daemons) start(ctx context.Context, bin, snap string) (*daemon, error) {
	d, err := startDaemon(ctx, bin, snap)
	if err != nil {
		return nil, err
	}
	ds.live = append(ds.live, d)
	return d, nil
}

func (ds *daemons) killAll() {
	for _, d := range ds.live {
		d.kill()
	}
	ds.live = nil
}
