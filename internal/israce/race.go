//go:build race

// Package israce reports whether the binary was built with the race
// detector, for tests whose assertions the detector invalidates: it slows
// code unevenly, and makes sync.Pool drop a quarter of all Puts at random.
package israce

// Enabled is true under -race.
const Enabled = true
