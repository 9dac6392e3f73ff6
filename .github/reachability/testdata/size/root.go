// Package size is the size pass's fixture module: two lines here.
package size
