package experiments

import (
	"fmt"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// HistoryRow measures the historical-UI-states facility (§2.1): cost of
// recording overwritten states via copies, then walking the undo stack back
// and forward.
type HistoryRow struct {
	Depth       int
	RecordTime  time.Duration // N copies, each recording one backup
	UndoAllTime time.Duration // N undos back to the original state
	RedoAllTime time.Duration // N redos forward again
	UndoCorrect bool          // state after undo-all equals the original
	RedoCorrect bool          // state after redo-all equals the final copy
}

// HistoryWalk sweeps history depths.
func HistoryWalk(depths []int) ([]HistoryRow, error) {
	var rows []HistoryRow
	for _, depth := range depths {
		row, err := runHistoryWalk(depth)
		if err != nil {
			return nil, fmt.Errorf("history(%d): %w", depth, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runHistoryWalk(depth int) (row HistoryRow, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		_, _, cl := newBed(tb, 2, fieldSpec, 0,
			server.Options{HistoryDepth: depth + 1}, client.Options{})
		declare(tb, "/field", cl)
		a, b := cl[0], cl[1]

		// b starts at "original"; a overwrites it depth times by state copies —
		// each overwrite lands in the historical database.
		must(tb, b.DispatchChecked(&widget.Event{Path: "/field", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("original")}}))
		row = HistoryRow{Depth: depth}
		start := time.Now()
		for i := 0; i < depth; i++ {
			must(tb, a.DispatchChecked(&widget.Event{Path: "/field", Name: widget.EventChanged,
				Args: []attr.Value{attr.String(fmt.Sprintf("v%d", i))}}))
			must(tb, a.CopyTo("/field", b.Ref("/field"), false))
		}
		final := fmt.Sprintf("v%d", depth-1)
		waitValue(tb, "/field", widget.AttrValue, final, b)
		row.RecordTime = time.Since(start)

		// Undo all the way back.
		start = time.Now()
		for i := 0; i < depth; i++ {
			must(tb, b.Undo("/field"))
		}
		waitValue(tb, "/field", widget.AttrValue, "original", b)
		row.UndoAllTime = time.Since(start)
		row.UndoCorrect = true

		// Redo all the way forward.
		start = time.Now()
		for i := 0; i < depth; i++ {
			must(tb, b.Redo("/field"))
		}
		waitValue(tb, "/field", widget.AttrValue, final, b)
		row.RedoAllTime = time.Since(start)
		row.RedoCorrect = true
	})
	return row, err
}
