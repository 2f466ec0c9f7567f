//go:build race

package webbench

// raceEnabled reports a -race build, whose instrumentation changes what
// a run allocates; the allocation gates skip themselves there.
const raceEnabled = true
