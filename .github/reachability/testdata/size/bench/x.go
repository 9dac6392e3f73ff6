// Package x is under bench/, which is not budgeted.
package x
