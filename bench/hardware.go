package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hardware describes the box a run file was measured on.
func hardware(e *env) map[string]string {
	h := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu_model":  firstField("/proc/cpuinfo", "model name"),
		"ram":        firstField("/proc/meminfo", "MemTotal"),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"tmp_fstype": fsType(e.tmp()),
		"commit":     "unknown",
	}
	// The driver's checkout is not a git repository; only a developer's is.
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(out))
	}
	return h
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// firstField returns the value of the first "key : value" line of a
// /proc file.
func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/mounts that prefixes it.
func fsType(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fields[2]
		}
	}
	return typ
}
