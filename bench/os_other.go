//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuTime falls back to the wall clock where the process clock is not at
// hand; figures taken on it are then wall figures.
func cpuTime() time.Duration { return time.Since(processStart) }

func fsType(string) string { return "unknown" }
