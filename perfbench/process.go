package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// lineLog collects a child's output line by line, stamping each line
// with its arrival time since the child was started, and wakes waiters
// when a line arrives.
type lineLog struct {
	mu    sync.Mutex
	start time.Time
	buf   []byte
	lines []stampedLine
	file  io.Writer
	wake  chan struct{}
}

type stampedLine struct {
	at   time.Duration
	text string
}

func newLineLog(file io.Writer) *lineLog {
	return &lineLog{file: file, wake: make(chan struct{})}
}

func (l *lineLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file != nil {
		l.file.Write(p) // best-effort copy for debugging a failed run
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, stampedLine{at: now.Sub(l.start), text: string(l.buf[:i])})
		l.buf = l.buf[i+1:]
	}
	close(l.wake)
	l.wake = make(chan struct{})
	return len(p), nil
}

// waitFor blocks until a line matches re, returning its submatches and
// arrival time, or fails at the deadline or when done is closed.
func (l *lineLog) waitFor(re *regexp.Regexp, deadline time.Time, done <-chan struct{}) ([]string, time.Duration, error) {
	for {
		l.mu.Lock()
		for _, ln := range l.lines {
			if m := re.FindStringSubmatch(ln.text); m != nil {
				l.mu.Unlock()
				return m, ln.at, nil
			}
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-done:
			return nil, 0, fmt.Errorf("process exited before printing %q", re)
		case <-time.After(time.Until(deadline)):
			return nil, 0, fmt.Errorf("timed out waiting for %q", re)
		}
	}
}

// matching returns the lines that match re, in arrival order.
func (l *lineLog) matching(re *regexp.Regexp) []stampedLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []stampedLine
	for _, ln := range l.lines {
		if re.MatchString(ln.text) {
			out = append(out, ln)
		}
	}
	return out
}

// child is one started program under test.
type child struct {
	cmd    *exec.Cmd
	stderr *lineLog
	start  time.Time
	done   chan struct{}
}

// startChild starts bin with args, copying stdout to stdout (when not
// nil) and its stderr to logPath.
func startChild(bin string, args []string, stdout io.Writer, logPath string) (*child, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(bin, args...), stderr: newLineLog(f), done: make(chan struct{})}
	c.cmd.Stdout = stdout
	c.cmd.Stderr = c.stderr
	c.start = time.Now()
	c.stderr.start = c.start
	if err := c.cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status is read from ProcessState
		f.Close()
		close(c.done)
	}()
	return c, nil
}

// exit is how a child ended.
type exit struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	code  int
	rssMB float64 // peak resident set
}

// wait waits for the child to exit, killing it after timeout.
func (c *child) wait(timeout time.Duration) (exit, error) {
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.cmd.Process.Kill()
		<-c.done
		return exit{code: -1}, fmt.Errorf("%s did not exit within %v", c.cmd.Path, timeout)
	}
	st := c.cmd.ProcessState
	e := exit{wall: time.Since(c.start), cpu: st.UserTime() + st.SystemTime(), code: st.ExitCode()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		e.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return e, nil
}

// cpuTime returns the CPU time (user + system) the running child has
// used so far, from /proc/<pid>/stat, whose times are in USER_HZ
// (100 per second on Linux).
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", c.cmd.Process.Pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times %q %q", c.cmd.Process.Pid, f[11], f[12])
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stop asks the child to drain with SIGTERM and waits for it.
func (c *child) stop() (code int, rssMB float64, err error) {
	select {
	case <-c.done:
	default:
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
	e, err := c.wait(60 * time.Second)
	return e.code, e.rssMB, err
}

var (
	servingRe   = regexp.MustCompile(`serving on http://(\S+)`)
	prewarmedRe = regexp.MustCompile(`prewarmed (\d+) artifacts|prewarm stopped`)
)

// daemon is a started reprod.
type daemon struct {
	*child
	base  string // http://host:port
	setup time.Duration
}

// startDaemon launches reprod on a free local port with args and
// returns once /healthz answers 200 and prewarm is done; setup is the
// time from launch until both hold.
func startDaemon(bin string, args []string, logPath string, client *http.Client) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-prewarm", "-runtime-sample", "0"}, args...)
	c, err := startChild(bin, args, nil, logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{child: c}
	deadline := time.Now().Add(120 * time.Second)
	m, _, err := c.stderr.waitFor(servingRe, deadline, c.done)
	if err != nil {
		c.stop()
		return nil, err
	}
	d.base = "http://" + m[1]
	var healthy time.Duration
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthy = time.Since(c.start)
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("reprod /healthz never returned 200")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m, prewarmed, err := c.stderr.waitFor(prewarmedRe, deadline, c.done)
	if err != nil {
		c.stop()
		return nil, err
	}
	if strings.HasPrefix(m[0], "prewarm stopped") {
		c.stop()
		return nil, fmt.Errorf("reprod: %s", m[0])
	}
	d.setup = max(healthy, prewarmed)
	return d, nil
}

// newClient returns an HTTP client holding at most conns connections
// to the daemon, the benchmark's whole load.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// getBody fetches url, sending If-None-Match when etag is set.
func getBody(client *http.Client, url, etag string) (status int, body []byte, respETag string, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}
