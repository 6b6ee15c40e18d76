package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord says where a result was taken; every results file carries one,
// because a wall-clock number without its host is not a measurement.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GitCommit  string  `json:"git_commit"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  "unknown",
		LoadStart:  loadAvg1(),
	}
	// The acceptance driver's checkout is not a git repository; there the
	// commit stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg1 is the 1-minute load average, or -1 where /proc has none.
func loadAvg1() float64 {
	fields := strings.Fields(firstLine("/proc/loadavg"))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// warnIfLoaded says so when the host is busy before the run starts: the
// numbers then measure the scheduler, not the program. It never fails the
// run.
func warnIfLoaded(h hostRecord) {
	if h.LoadStart > float64(h.NProc)/2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load %.2f exceeds nproc/2 (%d cores); timings are unreliable\n",
			h.LoadStart, h.NProc)
	}
}

// usage is the process's resource use so far.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS float64       // MB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	u := usage{
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
	// ru_maxrss survives execve: under `go run` it starts at the go command's
	// own footprint, which would hide every workload smaller than that. The
	// address space's own high-water mark does not.
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					u.maxRSS = kb / 1024
				}
				break
			}
		}
	}
	return u
}

func hashHex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}
