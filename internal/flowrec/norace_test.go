//go:build !race

package flowrec_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
