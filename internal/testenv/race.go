//go:build race

package testenv

func init() { raceEnabled = true }
