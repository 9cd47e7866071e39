package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// buildDir is where the harness keeps what it builds and leaves behind:
// the lockdown binary and the trace files. It is relative to the module
// root the harness runs from and named in .gitignore.
const buildDir = ".bench_build"

// envBlock records the box a result was measured on. Nothing in it
// normalises a metric: it is there so a slow box can be told from a slow
// program when two results disagree.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"N"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"loadavg_at_start"`
	WorkDir    string `json:"work_dir"`
	WorkDirFS  string `json:"work_dir_fs"`
	// CalibS is the wall time of a fixed integer loop run just before the
	// workload.
	CalibS float64 `json:"calib_s"`
}

func newEnvBlock(workDir string) envBlock {
	return envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		N:          workerCount(),
		GoVersion:  runtime.Version(),
		GOAMD64:    goamd64(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
		WorkDir:    workDir,
		WorkDirFS:  fsType(workDir),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// goamd64 reports the microarchitecture level the harness, and so the
// child it builds with the same toolchain and environment, was compiled
// for.
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "n/a"
}

// fsType names the filesystem holding path, from the longest mount point
// in /proc/mounts that is a prefix of it.
func fsType(path string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		under := abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")
		if under && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

var calibSink uint64

// calibrate times a fixed xorshift loop. The number is reported, never
// used to scale a metric.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<27; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Seconds()
}

// newWorkDir makes the run's private directory: spill segments, child
// output and the reference all live there and it is removed when the run
// ends. /dev/shm keeps segment write-back off the disk, which is what made
// the spill workload unrepeatable; without a writable /dev/shm the
// directory goes under buildDir and the filesystem type in the result
// says so.
func newWorkDir() (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "lockdown-bench-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	return filepath.Abs(dir)
}
