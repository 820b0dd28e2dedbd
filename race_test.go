//go:build race

package mpss

// Under the race detector sync.Pool drops a random share of the items
// put back, so pooled solver scratch is not reused and allocation gates
// that count on that reuse do not apply.
func init() { raceEnabled = true }
