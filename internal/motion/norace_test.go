//go:build !race

package motion

const raceEnabled = false
