//go:build !race

package main

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = false
