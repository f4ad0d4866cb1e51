package main

import "testing"

// TestRunnersQuick smoke-tests every experiment printer with reduced
// parameters, so `go test ./cmd/...` verifies the binary's code paths.
// Over 0.5 s, mostly E4's 512 one-character events: it is the only test of
// the printers that turn experiment rows into the tables EXPERIMENTS.md quotes.
func TestRunnersQuick(t *testing.T) {
	runners := map[string]func(bool) error{
		"table1":        runTable1,
		"arch":          runArch,
		"statevsaction": runStateVsAction,
		"floorlock":     runFloorLock,
		"compat":        runCompat,
		"tori":          runTORI,
		"indirect":      runIndirect,
		"ordering":      runOrdering,
		"history":       runHistory,
		"locking":       runLocking,
	}
	for name, fn := range runners {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			if err := fn(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}
