package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one child process of the harness.
type server struct {
	name   string
	cmd    *exec.Cmd
	stderr *tail
	exited chan struct{} // closed once Wait has returned
	// admin serves /readyz, /metrics and /debug/pprof (the -serve address
	// of a query server, the -metrics-addr of a shard server).
	admin string
	// shard is the shard-protocol address; "" for a query server.
	shard string
}

// tail keeps the last bytes a child wrote to stderr, for the error that
// reports its death.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// children is every process started and not yet reaped, with the run's
// temp dir, so that every way out of the harness can remove what is left.
var children = struct {
	sync.Mutex
	live   map[*server]struct{}
	closed bool // set by cleanup: nothing may be started after it
	temp   string
	// watchdog is the process that cleans up after a harness that died
	// without running cleanup; pipe is how it is told what to clean up.
	watchdog *exec.Cmd
	pipe     io.WriteCloser
}{live: map[*server]struct{}{}}

// The watchdog covers the one exit no code in the dying process can handle:
// SIGKILL, as a driver's timeout sends. It is the harness's own binary run
// with -watchdog, in its own process group, reading a pipe only the harness
// writes: "T <dir>" names the temp dir, "+<pid>" a child's process group just
// started, "-<pid>" one reaped. When the pipe closes, for whatever reason,
// it kills every group still listed, removes the temp dir and exits.
// (PR_SET_PDEATHSIG on the children would be one line, but it is tied to the
// thread that forked, which the Go runtime may retire.)
func startWatchdog(temp string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-watchdog")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pipe, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	children.Lock()
	defer children.Unlock()
	children.temp = temp
	if children.closed {
		return fmt.Errorf("starting the watchdog: the harness is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting the watchdog: %w", err)
	}
	children.watchdog, children.pipe = cmd, pipe
	fmt.Fprintf(pipe, "T %s\n", temp)
	return nil
}

// watchdogMain is the -watchdog process.
func watchdogMain(in io.Reader) int {
	signal.Ignore(syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	temp := ""
	groups := map[int]bool{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if dir, ok := strings.CutPrefix(line, "T "); ok {
			temp = dir
		} else if pid, err := strconv.Atoi(line); err == nil && pid != 0 {
			groups[max(pid, -pid)] = pid > 0
		}
	}
	for pid, live := range groups {
		if live {
			syscall.Kill(-pid, syscall.SIGKILL)
		}
	}
	if temp != "" {
		os.RemoveAll(temp)
	}
	return 0
}

// newServer prepares, without starting it, bin in its own process group: a
// signal sent to the harness's group is then the harness's to pass on.
func newServer(bin, name string, args []string, admin, shard string) *server {
	s := &server{name: name, stderr: &tail{}, exited: make(chan struct{}), admin: admin, shard: shard}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return s
}

// start launches the process and returns without waiting for it to become
// ready.
func (s *server) start() error {
	// Started under the lock, so cleanup sees either no child or a started
	// one, and nothing starts once it has run.
	children.Lock()
	if children.closed {
		children.Unlock()
		return fmt.Errorf("starting %s: the harness is shutting down", s.name)
	}
	err := s.cmd.Start()
	if err == nil {
		children.live[s] = struct{}{}
		fmt.Fprintf(children.pipe, "+%d\n", s.cmd.Process.Pid)
	}
	children.Unlock()
	if err != nil {
		return fmt.Errorf("starting %s: %w", s.name, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	return nil
}

// waitReady polls until the server answers: /readyz 200 on its admin
// address and, for a shard server, an accepted TCP connection on its shard
// address (the admin endpoint comes up first, so the shard port decides the
// time). A server that exits first, or is still not ready at the deadline,
// is an error carrying its stderr.
func (s *server) waitReady(deadline time.Time) error {
	client := &http.Client{Timeout: time.Second}
	ready := func() bool {
		if s.shard != "" {
			c, err := net.DialTimeout("tcp", s.shard, time.Second)
			if err != nil {
				return false
			}
			c.Close()
		}
		resp, err := client.Get("http://" + s.admin + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	for !ready() {
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited before it was ready (%v): %s", s.name, s.cmd.ProcessState, s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready in time: %s", s.name, s.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// stop asks the server to drain (SIGTERM), kills its group if it has not
// gone within five seconds, and returns once it is reaped.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
	}
	s.kill()
}

// kill SIGKILLs the server's process group, unless it has been reaped
// already (its pid may belong to someone else by now), and waits for the
// reaper.
func (s *server) kill() {
	select {
	case <-s.exited:
	default:
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-s.exited
	children.Lock()
	if _, live := children.live[s]; live {
		delete(children.live, s)
		fmt.Fprintf(children.pipe, "-%d\n", s.cmd.Process.Pid)
	}
	children.Unlock()
}

// cleanup kills every child still running, forbids starting another,
// removes the temp dir and lets the watchdog go. Every way out of the
// harness that code can see goes through it: run's return, SIGINT and
// SIGTERM, and, through cleanupOnPanic, a panic on any goroutine.
func cleanup() {
	children.Lock()
	children.closed = true
	var live []*server
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
	children.Lock()
	defer children.Unlock()
	os.RemoveAll(children.temp)
	if children.watchdog != nil {
		children.pipe.Close()
		children.watchdog.Wait()
		children.watchdog = nil
	}
}

// cleanupOnPanic is deferred in every goroutine the harness starts, and in
// memShard.Call, which the engine's goroutines enter: a panic there ends the
// process without running the deferred calls of run.
func cleanupOnPanic() {
	if p := recover(); p != nil {
		cleanup()
		panic(p)
	}
}

// freeAddrs asks the kernel for n unused loopback ports and releases them
// for the children to bind. All n are held until the last is found: a port
// released earlier could be handed out again, and two processes of one
// topology would fight over it.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// topology is one workload's running server processes. servers[0] answers
// /query; the rest are its shard servers.
type topology struct {
	servers []*server
}

func (t *topology) queryURL() string { return "http://" + t.servers[0].admin + "/query" }

func (t *topology) readyURL() string { return "http://" + t.servers[0].admin + "/readyz" }

func (t *topology) stop() {
	for _, s := range t.servers {
		s.stop()
	}
}

// boot starts every process of w's topology at once, as a deployment would,
// and waits until all are ready. It returns the time from the first start
// to the last ready. On error nothing is left running.
func boot(bin, tsv string, w *workload) (*topology, time.Duration, error) {
	base := append([]string{"-net", tsv}, commonFlags...)
	addrs, err := freeAddrs(1 + 2*w.shards)
	if err != nil {
		return nil, 0, err
	}
	var shards []*server
	var shardAddrs []string
	for i := 0; i < w.shards; i++ {
		shard, admin := addrs[1+2*i], addrs[2+2*i]
		shardAddrs = append(shardAddrs, shard)
		args := append(append([]string(nil), base...), "-shard-serve", "-shard-listen", shard, "-metrics-addr", admin, "-workers", "1")
		shards = append(shards, newServer(bin, fmt.Sprintf("%s/shard%d", w.name, i), args, admin, shard))
	}
	args := append(append(append([]string(nil), base...), "-serve", addrs[0]), w.flags...)
	if len(shardAddrs) > 0 {
		args = append(args, "-shard-addrs", strings.Join(shardAddrs, ","))
	}

	t := &topology{}
	began := time.Now()
	for _, s := range append([]*server{newServer(bin, w.name, args, addrs[0], "")}, shards...) {
		if err := s.start(); err != nil {
			t.stop()
			return nil, 0, err
		}
		t.servers = append(t.servers, s)
	}
	deadline := began.Add(60 * time.Second)
	for _, s := range t.servers {
		if err := s.waitReady(deadline); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	return t, time.Since(began), nil
}

// sumProc adds up, over the topology's processes, what parse reads from
// each one's /proc/<pid>/<file>.
func (t *topology) sumProc(file string, parse func(string) (float64, error)) (float64, error) {
	total := 0.0
	for _, s := range t.servers {
		text, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", s.cmd.Process.Pid, file))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		v, err := parse(string(text))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		total += v
	}
	return total, nil
}

// cpuSeconds is utime+stime summed over the topology's processes.
func (t *topology) cpuSeconds() (float64, error) { return t.sumProc("stat", procCPUSeconds) }

// peakRSSMiB is VmHWM summed over the topology's processes.
func (t *topology) peakRSSMiB() (float64, error) { return t.sumProc("status", procPeakRSSMiB) }

// heap is the heap endpoint's counters summed over the topology's processes.
func (t *topology) heap() (heapStats, error) {
	var total heapStats
	for _, s := range t.servers {
		h, err := get("http://"+s.admin+"/debug/pprof/heap?debug=1", parseHeap)
		if err != nil {
			return total, fmt.Errorf("%s: %w", s.name, err)
		}
		total.TotalAlloc += h.TotalAlloc
		total.Mallocs += h.Mallocs
		total.NumGC += h.NumGC
	}
	return total, nil
}

// metrics is /metrics of the query server and, separately, the sum over the
// shard servers: the coordinator's engine phases and the shards' must not be
// added together, their traversal counters must.
func (t *topology) metrics() (coord, shards samples, err error) {
	shards = samples{}
	for i, s := range t.servers {
		m, err := get("http://"+s.admin+"/metrics", parseMetrics)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if i == 0 {
			coord = m
		} else {
			shards.add(m)
		}
	}
	return coord, shards, nil
}

// buildNetout compiles cmd/netout from the checkout the harness runs in.
func buildNetout(out string) error {
	if _, err := os.Stat("cmd/netout"); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/netout")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/netout: %w\n%s", err, b)
	}
	return nil
}
