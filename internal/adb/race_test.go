//go:build race

package adb

// raceSlack is the allocation-count tolerance of TestConstraintCheckAllocs
// under the race detector, which perturbs counts at random; without it the
// gate is exact.
const raceSlack = 1
