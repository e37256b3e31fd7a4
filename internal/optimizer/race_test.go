//go:build race

package optimizer

func init() { RaceDetector = true }
