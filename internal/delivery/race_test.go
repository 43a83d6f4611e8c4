//go:build race

package delivery

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so an allocation bound that rests on pooling does not hold.
const raceEnabled = true
