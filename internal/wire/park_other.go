//go:build !linux

package wire

import "time"

// preciseTimer does not exist off Linux: every park is on the Go timer.
type preciseTimer struct{}

func newPreciseTimer() *preciseTimer         { return nil }
func (*preciseTimer) arm(time.Duration) bool { return false }
func (*preciseTimer) kick()                  {}
func (*preciseTimer) wait()                  {}
func (*preciseTimer) close()                 {}
