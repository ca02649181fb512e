package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"tiledqr/internal/vec"
)

// hostInfo stamps a results file. Two files are comparable only when CPU
// model, core count and vec family agree.
type hostInfo struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	VecFamily  string `json:"vec_family"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readHost(seed int64) hostInfo {
	h := hostInfo{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		VecFamily: vec.ActiveFamily(), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed}
	if name := vec.SIMDName(); h.VecFamily == vec.FamilySIMD && name != "" {
		h.VecFamily += "/" + name
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout without .git (the driver's) has no commit to report.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// peakRSS returns the VmHWM of a process in MB, 0 where /proc has none.
func peakRSS(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func selfPeakRSS() float64 { return peakRSS(os.Getpid()) }
