//go:build !race

package compiler

// raceEnabled reports that the test binary runs under the race
// detector, which allocates on its own.
const raceEnabled = false
