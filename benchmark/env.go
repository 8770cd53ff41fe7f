package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is the header of every result file: enough to tell whether
// two files may be compared at all.
func environment(dataRoot string, seed uint64, seconds float64) map[string]string {
	env := map[string]string{
		"git_sha":      gitSHA(),
		"go_version":   runtime.Version(),
		"gomaxprocs":   fmt.Sprint(pinnedProcs),
		"clients":      fmt.Sprint(clients),
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"cpu_model":    cpuModel(),
		"kernel":       firstLine("/proc/sys/kernel/osrelease"),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"backend":      "disk (durable workloads), none (volatile workloads)",
		"data_dir_fs":  fsType(dataRoot),
		"seed":         fmt.Sprint(seed),
		"seconds":      fmt.Sprint(seconds),
		"window_split": fmt.Sprintf("open %.2f, closed %.2f, %d set-ups", openShare, closedShare, setupRepeats),
	}
	for _, w := range workloads {
		open, closed := w.windows(seconds)
		env["frozen."+w.name] = fmt.Sprintf("graph 2^%d x %d, open %.0f/s x %d, closed %d requests, checkpoint every %.0f s",
			w.graph.LogN, w.graph.MeanDeg, w.openRate, open, closed, w.ckptEvery)
	}
	return env
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the checked-out commit, or "unknown" outside a git checkout
// (the benchmark driver runs in an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
