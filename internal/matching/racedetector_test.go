//go:build race

package matching

func init() { raceDetector = true }
