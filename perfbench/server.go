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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/xserve once per checkout into .bench_build.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "xserve")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/xserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/xserve: %w", err)
	}
	return out, nil
}

// server is one running xserve child process.
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	storeDir string // "" without a store
	exited   chan struct{}
}

// serverArgs is xserve's command line for a workload: the defaults
// (one shard, default pool and snapshot cadence) plus the workload's
// flush policy.
func serverArgs(w workload, dir string) []string {
	args := []string{"-listen", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr")}
	if w.fsync != "" {
		args = append(args, "-store-dir", filepath.Join(dir, "store"), "-store-fsync", w.fsync)
	}
	return args
}

// startServer boots xserve in dir and waits until /readyz answers.
func startServer(ctx context.Context, bin string, w workload, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "xserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, serverArgs(w, dir)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	if w.fsync != "" {
		s.storeDir = filepath.Join(dir, "store")
	}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "addr")); err == nil && strings.HasSuffix(string(b), "\n") {
			s.base = "http://" + strings.TrimSpace(string(b))
			if ready(s.base) {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("xserve exited during boot (see %s)", filepath.Join(dir, "xserve.log"))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("xserve not ready after 30s")
		}
		// Boot takes a few milliseconds, so poll finely: setup_s must
		// not be rounded up to the polling interval.
		sleep(100 * time.Microsecond)
	}
}

var probe = &http.Client{Timeout: 2 * time.Second}

func ready(base string) bool {
	resp, err := probe.Get(base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, and SIGKILL if the drain outlasts ten seconds,
// and returns once the process has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// sample is the server's resource counters at one instant.
type sample struct {
	cpuTicks int64 // utime+stime, in clock ticks
	mem      memStats
	metrics  map[string]float64 // /metrics, summed over labels
}

type memStats struct {
	TotalAlloc, Mallocs, PauseTotalNs, HeapInuse uint64
	NumGC                                        uint32
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// cpuTicks reads xserve's utime+stime, fields 14 and 15 of
// /proc/<pid>/stat.
func (s *server) cpuTicks() (int64, error) {
	pid := s.cmd.Process.Pid
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Count fields after the parenthesised command name, which may
	// hold spaces.
	f := strings.Fields(string(b)[strings.LastIndexByte(string(b), ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st, nil
}

// stealTicks reads the CPU time the hypervisor gave to other guests,
// summed over this machine's CPUs (the steal column of /proc/stat).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func (s *server) sample() (sample, error) {
	var out sample
	var err error
	if out.cpuTicks, err = s.cpuTicks(); err != nil {
		return out, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := getJSON(s.base+"/debug/vars", &vars); err != nil {
		return out, err
	}
	out.mem = vars.Memstats
	out.metrics, err = scrapeMetrics(s.base + "/metrics")
	return out, err
}

// peakRSSMB reads VmHWM, the resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM")
}

func getJSON(url string, into any) error {
	resp, err := probe.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scrapeMetrics reads the Prometheus text page, summing each metric
// over its label sets.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := probe.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// storeFiles reports the shard's WAL size and its newest snapshot's
// size.
func storeFiles(storeDir string) (walBytes, snapBytes int64) {
	dir := filepath.Join(storeDir, "shard-00")
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		walBytes = fi.Size()
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.xcsnap"))
	if len(snaps) > 0 {
		// Names carry the LSN in fixed-width hex, so the last sorts newest.
		if fi, err := os.Stat(snaps[len(snaps)-1]); err == nil {
			snapBytes = fi.Size()
		}
	}
	return walBytes, snapBytes
}
