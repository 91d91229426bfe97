//go:build race

package core

// raceEnabled reports whether the race detector is on. The simulator is
// one goroutine, so under -race it only runs slower: TestSimChurn then
// runs a tenth of its seeds.
const raceEnabled = true
