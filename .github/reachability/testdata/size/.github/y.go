// Package y is under a dot directory, which is not budgeted.
package y
