package raysim

import (
	"math/rand"
	"time"
)

// FullJitter maps a capped exponential backoff d and a uniform draw
// u ∈ [0,1) to an actual sleep in [0, d) — AWS-style "full jitter". The
// exponential schedule still bounds the restart rate, but simultaneous
// failures no longer produce synchronized restart waves: each supervisor
// re-spawns at an independent random point inside its window.
func FullJitter(d time.Duration, u float64) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(u * float64(d))
}

// Jitter draws a full-jitter sleep for backoff d. The top-level math/rand
// source is goroutine-safe, so concurrent supervisors draw independently
// without shared state of their own.
func Jitter(d time.Duration) time.Duration {
	return FullJitter(d, rand.Float64())
}
