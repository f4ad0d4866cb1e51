package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fingerprint describes the environment of a run, so two result files are
// comparable or visibly not.
func fingerprint(o options) map[string]string {
	return map[string]string{
		"commit":     commit(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"shards":     fmt.Sprint(serverOptions(nil, nil, nil).Shards),
		"seed":       fmt.Sprint(o.seed),
		"tmp_fs":     fsType(o.dir),
		"warmup":     o.warmup.String(),
		"window":     fmt.Sprintf("%s in %d slices", o.window, o.slices),
		"transport":  "loopback TCP, server in-process",
	}
}

func printFingerprint(fp map[string]string) {
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("cosoft benchmark")
	for _, k := range keys {
		fmt.Printf("  %-11s %s\n", k, fp[k])
	}
}

// commit is the checked-out revision, or "unknown" outside a git checkout
// (a driver's copy of the tree is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
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

// fsType names the filesystem the durable workload's log lands on; fsync
// cost is a property of it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
