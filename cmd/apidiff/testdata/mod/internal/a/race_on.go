//go:build race

package a

// Race is declared once per build: here with -race, in race_off.go without.
const Race = true
