package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children is every process the benchmark has started and not yet reaped.
// killChildren runs on every exit path (normal return, a failed check, a
// signal), and each child is also started with Pdeathsig so that even a
// SIGKILL of the benchmark takes its servers with it.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*exec.Cmd]bool)
	}
	children.live[cmd] = true
	children.Unlock()
	return nil
}

// reap waits for a started child and forgets it.
func reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
	return err
}

func killChildren() {
	children.Lock()
	live := make([]*exec.Cmd, 0, len(children.live))
	for cmd := range children.live {
		live = append(live, cmd)
	}
	children.Unlock()
	for _, cmd := range live {
		_ = cmd.Process.Kill() // already gone is fine
		_ = reap(cmd)          // killed on purpose: its status says nothing
	}
}

// killChildrenOnSignal makes an interrupted benchmark leave nothing behind.
func killChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
}

// repoRoot is the module under test: the parent of the benchmark's directory,
// from which run.sh starts the benchmark.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "kbt", "main.go")); err != nil {
		return "", fmt.Errorf("the benchmark runs from the bench directory of the kbt repository: %w", err)
	}
	return root, nil
}

// buildKBT builds cmd/kbt into dir and reports how long the go command took —
// which measures the build cache, so it is reported apart from setup_s.
func buildKBT(root, dir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(dir, "kbt")
	start := time.Now()
	cmd := exec.Command("go", "build", "-C", root, "-o", bin, "./cmd/kbt")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/kbt: %w", err)
	}
	return bin, time.Since(start).Seconds(), nil
}

// jobUsage is what one finished batch subprocess cost.
type jobUsage struct {
	wallS, cpuS, rssMB float64
	stdout             []byte
}

// peakPollEvery is how often a running job's peak resident set is read.
const peakPollEvery = 20 * time.Millisecond

// runJob runs the binary to completion with stdout captured. The peak
// resident set is polled from /proc while the job runs: the ru_maxrss that
// wait4 returns starts from the parent's own resident set (Go starts children
// with CLONE_VM, and exec folds the old address space's high-water mark into
// the child's), so it reads the benchmark's memory whenever that is larger.
func runJob(bin string, env []string, args ...string) (jobUsage, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	if err := startChild(cmd); err != nil {
		return jobUsage{}, err
	}
	stop, polled := make(chan struct{}), make(chan float64)
	go func() {
		peak := 0.0
		for {
			if mb, err := procStatusMB(cmd.Process.Pid, "VmHWM:"); err == nil {
				peak = max(peak, mb)
			}
			select {
			case <-stop:
				polled <- peak
				return
			case <-time.After(peakPollEvery):
			}
		}
	}()
	err := reap(cmd)
	wall := time.Since(start).Seconds()
	close(stop)
	peak := <-polled
	if err != nil {
		return jobUsage{}, fmt.Errorf("kbt %s: %w: %s", strings.Join(args, " "), err, errOut.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return jobUsage{}, errors.New("no rusage for the finished child")
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return jobUsage{
		wallS:  wall,
		cpuS:   tv(ru.Utime) + tv(ru.Stime),
		rssMB:  peak,
		stdout: out.Bytes(),
	}, nil
}

// serverProc is one running `kbt serve -listen`.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServer launches the binary and returns once it has printed the address
// it bound, which it does only after recovery and the first refresh: the time
// this call takes is the server's whole start-up.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	const marker = "-- serving HTTP on "
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), marker); ok {
			// Nothing more is read from the pipe; the server prints only a
			// shutdown line after this, far below the pipe's capacity.
			return &serverProc{cmd: cmd, addr: addr}, nil
		}
	}
	_ = cmd.Process.Kill()
	_ = reap(cmd)
	return nil, fmt.Errorf("kbt %s exited before listening: %s", strings.Join(args, " "), errOut.String())
}

// kill stops the server the hard way, as a crash would, and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = reap(p.cmd) // "signal: killed" is the point
}

// cpuSeconds reads the CPU time the process has used so far: the on-CPU
// nanoseconds of its threads from the scheduler's own accounting.
// (/proc/<pid>/stat has the same in 10 ms ticks, too coarse for a window of a
// quarter of a second.)
func (p *serverProc) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat", p.cmd.Process.Pid)
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty %s", t)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %q", t, b)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// rssMB reads the process's current resident set size.
func (p *serverProc) rssMB() (float64, error) {
	return procStatusMB(p.cmd.Process.Pid, "VmRSS:")
}

// procStatusMB reads one kB-valued field of /proc/<pid>/status, in MiB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s line %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
