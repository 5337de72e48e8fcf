package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neusight/internal/serve"
)

// server is one `neusight serve` process under test.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stdout chan struct{} // closed once the process's stdout is drained
}

// startServer execs `neusight serve` on the saved model with default flags
// (only the listen address is chosen: an ephemeral loopback port) and
// returns once the process reports its address, or fails.
func startServer(bin string, files modelFiles) (*server, error) {
	cmd := exec.Command(bin, "serve", "-model", files.Model, "-tiles", files.Tiles, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, stdout: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			// "serving engines [...] on 127.0.0.1:PORT, default ..."
			line := sc.Text()
			if i := strings.Index(line, "] on "); i >= 0 && strings.HasPrefix(line, "serving engines") {
				rest := line[i+len("] on "):]
				if j := strings.IndexByte(rest, ','); j >= 0 {
					addrc <- rest[:j]
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.stdout:
	case <-time.After(60 * time.Second):
	}
	s.stop()
	return nil, errors.New("server exited or never reported its listen address")
}

// stop terminates the server gracefully, force-killing it if the drain
// takes too long, and waits for it to exit.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.stdout
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// conn is one persistent HTTP/1.1 connection to the server, dialled on
// first use and again after any transport error. The generator writes
// requests by hand and parses replies with net/http, so the client spends
// little CPU on the box it shares with the server.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	buf  bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and body.
func (c *conn) do(method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	code, data, err := c.roundTrip(method, path, body, timeout)
	if err != nil {
		c.close()
	}
	return code, data, err
}

func (c *conn) roundTrip(method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(&c.buf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	c.c.SetDeadline(time.Now().Add(timeout))
	if _, err := c.c.Write(c.buf.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// call sends one request and decodes a reply with the wanted status into v.
func (c *conn) call(method, path string, body []byte, wantCode int, v any) error {
	code, data, err := c.do(method, path, body, 30*time.Second)
	if err != nil {
		return err
	}
	if code != wantCode {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, data)
	}
	return json.Unmarshal(data, v)
}

// stats fetches the server's aggregate counters.
func stats(addr string) (serve.StatsV2, error) {
	c := newConn(addr)
	defer c.close()
	var st serve.StatsV2
	return st, c.call(http.MethodGet, "/v2/stats", nil, http.StatusOK, &st)
}
