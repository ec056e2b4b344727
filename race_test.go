//go:build race

package seal

// raceEnabled reports a -race build, whose instrumented runtime (sync.Pool
// drops, detector bookkeeping) shifts allocation counts.
const raceEnabled = true
