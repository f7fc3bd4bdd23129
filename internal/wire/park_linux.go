package wire

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer is a nonblocking CLOCK_MONOTONIC timerfd read through an
// os.File: a worker waiting on it parks in the netpoller, which wakes it
// within microseconds of the expiry. Only kick may be called from another
// goroutine: it sets its own itimerspec (now, 1 ns), never arm's (at).
type preciseTimer struct {
	f       *os.File
	fd      uintptr // f's descriptor: f.Fd() would make it blocking
	at, now struct{ interval, value syscall.Timespec }
	buf     [8]byte
}

// newPreciseTimer makes the timerfd; one the system refuses never arms.
func newPreciseTimer() *preciseTimer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &preciseTimer{fd: ^uintptr(0)}
	}
	t := &preciseTimer{f: os.NewFile(fd, "timerfd"), fd: fd}
	t.now.value.Nsec = 1
	return t
}

// arm sets the timer to expire once, d from now, and reports whether it did.
func (t *preciseTimer) arm(d time.Duration) bool {
	t.at.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&t.at)), 0, 0, 0)
	return errno == 0
}

// kick makes the timer expire at once (a failed kick costs < preciseBelow).
func (t *preciseTimer) kick() {
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&t.now)), 0, 0, 0)
}

func (t *preciseTimer) wait()  { t.f.Read(t.buf[:]) }
func (t *preciseTimer) close() { t.f.Close() }
