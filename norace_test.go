//go:build !race

package seal

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
