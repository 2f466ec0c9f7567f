//go:build !race

package webbench

const raceEnabled = false
