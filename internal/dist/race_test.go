//go:build race

package dist

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of its puts at random, so allocation
// counts are not deterministic.
const raceEnabled = true
