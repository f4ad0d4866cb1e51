package experiments

import (
	"fmt"
	"sync"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// LockingRow compares the paper's published group-locking algorithm
// (sequential lock-all-or-undo, §3.2) against the deterministic-order
// ablation, under contention (DESIGN.md decision 2).
type LockingRow struct {
	Variant    string
	Users      int
	OpsPerUser int
	Total      time.Duration
	Denials    uint64
}

// LockingComparison runs the same contended workload under both variants.
func LockingComparison(users, opsPerUser int) ([]LockingRow, error) {
	var rows []LockingRow
	for _, ordered := range []bool{false, true} {
		variant := "paper-sequential"
		if ordered {
			variant = "ordered"
		}
		row, err := runLockingVariant(variant, users, opsPerUser, ordered)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", variant, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runLockingVariant(variant string, users, opsPerUser int, ordered bool) (row LockingRow, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		srv, bed, cl := newBed(tb, users, fieldSpec, 0,
			server.Options{OrderedLocking: ordered}, client.Options{})
		bed.Star("/field", cl...)
		var wg sync.WaitGroup
		errs := make(chan error, users)
		start := time.Now()
		for u := range cl {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				for i := 0; i < opsPerUser; i++ {
					ev := &widget.Event{Path: "/field", Name: widget.EventChanged,
						Args: []attr.Value{attr.String(fmt.Sprintf("u%d-%d", u, i))}}
					if _, err := DispatchRetry(cl[u], ev); err != nil {
						errs <- err
						return
					}
				}
			}(u)
		}
		wg.Wait()
		close(errs)
		must(tb, <-errs)
		row = LockingRow{
			Variant:    variant,
			Users:      users,
			OpsPerUser: opsPerUser,
			Total:      time.Since(start),
			Denials:    srv.Stats().LockFailures,
		}
	})
	return row, err
}
