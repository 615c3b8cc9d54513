//go:build !linux

package nettransport

import "time"

// clock is the timer heap's wake source off Linux: one Go timer, with the
// runtime's precision there.
type clock struct {
	tm   *time.Timer
	quit chan struct{}
}

func newClock() (clock, error) {
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return clock{tm: tm, quit: make(chan struct{})}, nil
}

// arm sets the one expiry d from now, replacing the last.
func (c *clock) arm(d time.Duration) { c.tm.Reset(d) }

// wait blocks until the armed expiry; false once closed.
func (c *clock) wait() bool {
	select {
	case <-c.tm.C:
		return true
	case <-c.quit:
		return false
	}
}

// close wakes a waiter, for good.
func (c *clock) close() {
	c.tm.Stop()
	close(c.quit)
}
