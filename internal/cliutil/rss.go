package cliutil

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// MaxRSSBytes reports the process's peak resident set size in bytes
// (VmHWM from /proc/self/status), or 0 where the proc filesystem is
// unavailable. The load generator embeds it in its JSON report so a
// scale sweep can plot memory against fleet size without an external
// profiler.
func MaxRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// CPUTime reports the process's user + system CPU time from /proc/self/stat
// (utime and stime, in ticks of USER_HZ = 100), or 0 where that is missing.
func CPUTime() time.Duration {
	data, _ := os.ReadFile("/proc/self/stat")
	var t int64
	if f := bytes.Fields(data[bytes.LastIndexByte(data, ')')+1:]); len(f) > 12 {
		for _, v := range f[11:13] {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			t += n
		}
	}
	return time.Duration(t) * 10 * time.Millisecond
}
