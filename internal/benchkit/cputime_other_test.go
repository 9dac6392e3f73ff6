//go:build !unix

package benchkit

import (
	"testing"
	"time"
)

// cpuTime skips the calling test: getrusage is a unix call.
func cpuTime(tb testing.TB) time.Duration {
	tb.Skip("process CPU time is read with getrusage, which this platform lacks")
	return 0
}
