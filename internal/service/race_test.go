//go:build race

package service_test

// raceEnabled: the tests run under the race detector.
const raceEnabled = true
