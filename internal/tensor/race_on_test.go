//go:build race

package tensor

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random and allocation counts say nothing.
const raceEnabled = true
