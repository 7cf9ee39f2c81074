//go:build race

package abndp

// raceEnabled reports a -race build: sync.Pool then drops a random share
// of Puts, so pool-reuse assertions do not hold.
const raceEnabled = true
