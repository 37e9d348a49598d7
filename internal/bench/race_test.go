//go:build race

package bench

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so pooled buffers are
// reallocated at random and allocation bounds do not hold.
const raceEnabled = true
