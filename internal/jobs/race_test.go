//go:build race

package jobs

// raceEnabled reports that the test binary runs under the race
// detector.
const raceEnabled = true
