//go:build race

package sim

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = true
