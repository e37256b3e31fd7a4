//go:build race

package executor

// The race detector slows the differential suite roughly eightfold, and CI
// runs this package under it at several -cpu values; a seeded prefix of the
// plan sequence keeps every gate under a minute. The full sequence runs in
// the plain `go test ./...` tier.
func init() { differentialPlans, raceDetector = 300, true }
