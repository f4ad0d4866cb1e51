//go:build !race

// Package race reports whether the binary was built with the race detector,
// so allocation-budget tests can skip themselves where the detector's own
// bookkeeping would be counted.
package race

// Enabled is true under -race.
const Enabled = false
