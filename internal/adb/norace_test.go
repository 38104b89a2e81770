//go:build !race

package adb

const raceSlack = 0
