package main

// The system under test as a subprocess: build cmd/rdfcubed once, boot
// it with a workload's flags, wait for /readyz, read its memory
// high-water mark, stop it.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// buildServer compiles cmd/rdfcubed from the repository the bench
// directory sits in.
func buildServer(repoRoot, binPath string) error {
	cmd := exec.Command("go", "build", "-o", binPath, "./cmd/rdfcubed")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building rdfcubed: %v\n%s", err, out)
	}
	return nil
}

// proc is one running rdfcubed.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	waited chan struct{}
}

// startServer spawns the binary on a free loopback port and returns
// once /readyz answers 200.
func startServer(bin string, flags []string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &proc{base: "http://" + addr, waited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, flags...)...)
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait()
		close(p.waited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.waited:
			return nil, fmt.Errorf("rdfcubed exited during start-up:\n%s", p.stderr.String())
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("rdfcubed not ready after 60s:\n%s", p.stderr.String())
}

// kill is kill -9: no shutdown checkpoint, the data-dir stays as the
// last acknowledged write left it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.waited
}

// stop shuts the server down gracefully, falling back to kill.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(20 * time.Second):
		p.kill()
	}
}

// rssPeakMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// maxConns is the load generator's connection budget: the box has two
// cores, shared with the server.
const maxConns = 2

// newClient returns a client limited to maxConns connections to the
// server, kept alive across requests.
func newClient() *http.Client {
	return &http.Client{
		// No request of any workload takes a second; a minute means the
		// server hangs, and the run must fail rather than hang with it.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		},
	}
}
