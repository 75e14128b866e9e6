//go:build race

package collective

func init() { raceEnabled = true }
