//go:build !race

package abndp

const raceEnabled = false
