//go:build !race

package ramsey

// raceEnabled is false in uninstrumented builds; see race_on_test.go.
const raceEnabled = false
