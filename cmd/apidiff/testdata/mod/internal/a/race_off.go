//go:build !race

package a

const Race = false
