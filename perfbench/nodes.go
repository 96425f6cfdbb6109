package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a claims-node may take to print its
// CLAIMS_NODE_READY line (it generates and loads its partition first).
const readyTimeout = 60 * time.Second

// nodeProc is one claims-node child process.
type nodeProc struct {
	id    int
	cmd   *exec.Cmd
	ctl   string      // control-plane address, from the ready line
	ready chan string // receives the ctl address once
	done  chan struct{}
	log   *tailBuffer
}

// liveNodes holds every started node until it is reaped, so that every
// exit path, an interrupt included, can kill what is still running.
var liveNodes = struct {
	sync.Mutex
	m map[*nodeProc]bool
}{m: map[*nodeProc]bool{}}

// spawnNode starts claims-node with the given id and flags. The child
// gets SIGKILL if this process dies first, and a reaper goroutine waits
// for it, so it never outlives the benchmark or lingers as a zombie.
func spawnNode(bin string, id int, args ...string) (*nodeProc, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("claims-node binary: %w", err)
	}
	p := &nodeProc{id: id, ready: make(chan string, 1), done: make(chan struct{}), log: &tailBuffer{}}
	p.cmd = exec.Command(bin, append([]string{"-id", strconv.Itoa(id)}, args...)...)
	p.cmd.Stdout = &readyWriter{ready: p.ready}
	p.cmd.Stderr = p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	liveNodes.Lock()
	defer liveNodes.Unlock()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start claims-node %d: %w", id, err)
	}
	liveNodes.m[p] = true
	go func() {
		p.cmd.Wait() //nolint:errcheck // a killed node exits non-zero by design
		close(p.done)
	}()
	return p, nil
}

// waitReady waits for the node's ready line.
func (p *nodeProc) waitReady(ctx context.Context) error {
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case p.ctl = <-p.ready:
		return nil
	case <-p.done:
		return fmt.Errorf("claims-node %d exited before it was ready: %s", p.id, p.log)
	case <-timer.C:
		return fmt.Errorf("claims-node %d not ready after %v: %s", p.id, readyTimeout, p.log)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// kill stops the node's process group and waits until it is reaped.
func (p *nodeProc) kill() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-p.done
	liveNodes.Lock()
	delete(liveNodes.m, p)
	liveNodes.Unlock()
}

// killAllNodes kills and reaps every node still running.
func killAllNodes() {
	liveNodes.Lock()
	var ps []*nodeProc
	for p := range liveNodes.m {
		ps = append(ps, p)
	}
	liveNodes.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// readyWriter scans a node's standard output for its ready line:
//
//	CLAIMS_NODE_READY id=1 addr=127.0.0.1:40213 ctl=127.0.0.1:40215
type readyWriter struct {
	buf   []byte
	ready chan string
}

func (w *readyWriter) Write(b []byte) (int, error) {
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if !strings.HasPrefix(line, "CLAIMS_NODE_READY ") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if ctl, ok := strings.CutPrefix(f, "ctl="); ok {
				select {
				case w.ready <- ctl:
				default:
				}
			}
		}
	}
}

// tailBuffer keeps the last few KiB a node wrote to standard error, for
// the error message when it fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(t.buf))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
