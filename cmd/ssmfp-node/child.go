package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"ssmfp/internal/graph"
)

// child is one forked node process: the process, the stdin pipe whose
// close is the node's shutdown signal, and the first line the node prints
// on stdout — a -serve node's startup banner, a -spawn node's report.
// Both judges (-spawn and -elastic) launch, read and reap their nodes
// through it.
type child struct {
	id    graph.ProcessID
	cmd   *exec.Cmd
	stdin *os.File
	first chan firstLine
}

// firstLine is the outcome of scanning a child's stdout for one line.
type firstLine struct {
	line []byte
	ok   bool
	err  error
}

// startChild forks self with args, keeps the write end of the child's
// stdin, and scans its stdout for the first line in the background.
func startChild(self string, id graph.ProcessID, args ...string) (*child, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdin = stdinR
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdinR.Close()
		stdinW.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdinR.Close()
		stdinW.Close()
		return nil, fmt.Errorf("node %d: %v", id, err)
	}
	stdinR.Close() // child holds its copy
	c := &child{id: id, cmd: cmd, stdin: stdinW, first: make(chan firstLine, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		ok := sc.Scan()
		c.first <- firstLine{line: append([]byte(nil), sc.Bytes()...), ok: ok, err: sc.Err()}
	}()
	return c, nil
}

// readFirst waits until deadline for the child's first stdout line and
// decodes it as JSON into v; what names the line in errors.
func (c *child) readFirst(v any, what string, deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case l := <-c.first:
		if !l.ok {
			return fmt.Errorf("node %d: exited without a %s (%v)", c.id, what, l.err)
		}
		if err := json.Unmarshal(l.line, v); err != nil {
			return fmt.Errorf("node %d: bad %s: %v", c.id, what, err)
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("node %d: no %s before deadline", c.id, what)
	}
}

// closeStdin sends the shutdown signal: a node exits on stdin EOF.
func (c *child) closeStdin() {
	if c.stdin != nil {
		c.stdin.Close()
		c.stdin = nil
	}
}

// release closes stdin and reaps the process.
func (c *child) release(wait time.Duration) {
	c.closeStdin()
	c.reap(wait)
}

// reap waits for the process to exit, killing it past the deadline.
// Reports whether the child left on its own.
func (c *child) reap(wait time.Duration) bool {
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(wait):
		c.cmd.Process.Kill()
		<-done
		return false
	}
}
