//go:build !race

package sim

// RaceEnabled reports that the test binary runs under the race
// detector, which allocates on its own.
const RaceEnabled = false
