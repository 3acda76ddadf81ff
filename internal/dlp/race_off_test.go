//go:build !race

package dlp

const raceEnabled = false
