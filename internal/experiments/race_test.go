//go:build race

package experiments

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what is put back, so allocation counts run higher than in a normal
// build (TestColdStartAllocs checks looser budgets there), and host time
// is the detector's (TestEngineSpeedupFloors skips).
const raceEnabled = true
