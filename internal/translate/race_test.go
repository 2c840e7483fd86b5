//go:build race

package translate

// raceEnabled is true under the race detector, whose instrumentation
// allocates: allocation counts mean nothing there.
const raceEnabled = true
