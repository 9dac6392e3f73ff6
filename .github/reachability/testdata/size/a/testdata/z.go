// Package z sits in testdata, which is not counted.
package z
