//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of its puts at random and the
// instrumentation allocates, so heap growth is not the server's own.
const raceEnabled = false
