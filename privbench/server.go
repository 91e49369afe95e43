package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one privcountd child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port

	// panics counts "http: panic serving" lines on the child's stderr.
	panics atomic.Int64

	stderrDone chan struct{}
	tailMu     sync.Mutex
	tail       []string // last stderr lines, for error reports

	stopOnce sync.Once
	stopErr  error
}

// servers tracks every live child so an early exit can stop them all.
var servers struct {
	mu  sync.Mutex
	set map[*server]bool
}

// startServer spawns bin on an ephemeral loopback port with the given
// extra flags and returns once GET /healthz answers 200.
func startServer(ctx context.Context, bin string, env []string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting privcountd: %w", err)
	}
	s := &server{cmd: cmd, stderrDone: make(chan struct{})}
	servers.mu.Lock()
	if servers.set == nil {
		servers.set = make(map[*server]bool)
	}
	servers.set[s] = true
	servers.mu.Unlock()

	addrc := make(chan string, 1)
	go s.scanStderr(stderr, addrc)
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.stderrDone:
		s.stop()
		return nil, fmt.Errorf("privcountd exited before listening: %s", s.lastLines())
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("privcountd did not report its listen address within 20s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("privcountd not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) scanStderr(r io.Reader, addrc chan<- string) {
	defer close(s.stderrDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "privcountd listening on "); i >= 0 {
			f := strings.Fields(line[i+len("privcountd listening on "):])
			if len(f) > 0 {
				select {
				case addrc <- f[0]:
				default:
				}
			}
		}
		if strings.Contains(line, "http: panic serving") {
			s.panics.Add(1)
		}
		s.tailMu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.tailMu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r)
}

func (s *server) lastLines() string {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace
// period) and waits until it and its stderr reader have exited.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { <-s.stderrDone; done <- s.cmd.Wait() }()
		select {
		case s.stopErr = <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			s.stopErr = <-done
		}
		servers.mu.Lock()
		delete(servers.set, s)
		servers.mu.Unlock()
	})
	return s.stopErr
}

// stopAllServers stops every child still running.
func stopAllServers() {
	servers.mu.Lock()
	live := make([]*server, 0, len(servers.set))
	for s := range servers.set {
		live = append(live, s)
	}
	servers.mu.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpu returns the child's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after ") ".
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns the child's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU returns the machine's steal and total CPU ticks from
// /proc/stat, so a run can report how much of the host it was denied.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// serverStats is the subset of GET /v2/stats the benchmark reads.
type serverStats struct {
	Entries        int64                         `json:"entries"`
	Hits           int64                         `json:"hits"`
	Misses         int64                         `json:"misses"`
	Evictions      int64                         `json:"evictions"`
	BuildSeconds   float64                       `json:"build_seconds"`
	Sheds          int64                         `json:"admission_sheds"`
	StoreHits      int64                         `json:"store_hits"`
	StoreMisses    int64                         `json:"store_misses"`
	StoreBytesRead int64                         `json:"store_bytes_read"`
	RouteLatency   map[string]map[string]float64 `json:"route_latency"`
}

func (s *server) stats(ctx context.Context) (*serverStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v2/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /v2/stats: %w", err)
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v2/stats: %w", err)
	}
	return &st, nil
}
