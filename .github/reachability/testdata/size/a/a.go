// Package a has five non-test lines.
package a

// A is counted.
func A() {}
