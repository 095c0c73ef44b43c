//go:build !race

package warehouse

// raceEnabled reports a -race build, whose sync.Pool drops items on purpose.
const raceEnabled = false
