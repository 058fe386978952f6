package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux configuration Go supports).
const clockTicks = 100

// snapshotd is a running snapshotd child process.
type snapshotd struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startSnapshotd launches the binary on a free loopback port over data
// and waits until it answers /debug/health.
func startSnapshotd(e *env, data string, c *client) (*snapshotd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(filepath.Dir(data), "snapshotd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	// -sweep 0: no server-side tracking sweeps; -max-inflight above the
	// client count, so nothing is shed by design.
	cmd := exec.Command(filepath.Join(e.bin, "snapshotd"), "-addr", addr, "-data", data,
		"-sweep", "0", "-max-inflight", "64")
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &snapshotd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, _, err := c.get(c.follow, s.base+"/debug/health")
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("snapshotd exited during start-up (see %s)", logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("snapshotd did not answer on %s", addr)
		}
	}
}

// stop interrupts the server and waits for it to exit, killing it if it
// has not within ten seconds.
func (s *snapshotd) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *snapshotd) pid() int { return s.cmd.Process.Pid }

// childAttr makes a child die with the benchmark even when the benchmark
// itself is killed and cannot stop it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// freeAddr picks a free loopback port. The listener is closed before the
// child binds it; on loopback nothing else races for it in practice.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// procCPU returns a process's user+system CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procPeakRSSMB returns a process's VmHWM in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// machineTicks returns the machine-wide CPU ticks from /proc/stat: all
// of them, and those stolen by the hypervisor for other guests.
func machineTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// dirBytes sums the sizes of the files under root whose names end in
// suffix.
func dirBytes(root, suffix string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, suffix) {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
