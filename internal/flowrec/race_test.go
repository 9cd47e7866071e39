//go:build race

package flowrec_test

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the batches put into it, so a draw can miss the pool at any time.
const raceEnabled = true
