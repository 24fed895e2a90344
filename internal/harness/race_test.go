//go:build race

package harness

// raceEnabled: the tests run under the race detector.
const raceEnabled = true
