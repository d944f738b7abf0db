//go:build race

package uvmsim

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
