//go:build race

package main

// raceEnabled reports a -race build, under which the full-size snapshots
// of TestSimulatedResultContract take minutes and are skipped.
const raceEnabled = true
