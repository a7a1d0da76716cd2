//go:build race

package motion

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of released objects, so allocation counts are not meaningful under it.
const raceEnabled = true
