//go:build race

package toplist

// raceEnabled reports a -race build, whose sync.Pool drops Puts at
// random; allocation bounds do not hold there.
const raceEnabled = true
