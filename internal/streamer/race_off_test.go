//go:build !race

package streamer

const raceEnabled = false
