//go:build race

package tmf

func init() { raceEnabled = true }
