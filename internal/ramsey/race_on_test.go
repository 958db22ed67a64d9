//go:build race

package ramsey

// raceEnabled reports whether this build is instrumented by the race
// detector. The step allocation gate skips itself under it: the detector
// allocates on its own, so AllocsPerRun would measure it, not the search.
const raceEnabled = true
