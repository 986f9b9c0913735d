package obs

import "time"

// clockBase anchors the process's one request clock.
var clockBase = time.Now()

// Now returns monotonic nanoseconds since process start: the single clock
// every span phase, slowlog window and serve histogram is measured on. It
// reads the monotonic clock alone (time.Now reads the wall clock too, at
// twice the price), so a stamp taken at one stage boundary can be shared
// by everyone who needs that boundary and intervals never mix clocks.
func Now() int64 { return int64(time.Since(clockBase)) }
