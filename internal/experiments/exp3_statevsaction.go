package experiments

import (
	"fmt"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/replay"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// StateVsActionRow compares re-synchronization strategies after a decoupled
// period of N missed actions (§3.1): naive action replay, compacted replay,
// and the single state copy the paper chose.
type StateVsActionRow struct {
	MissedActions int
	ReplayTime    time.Duration
	ReplayMsgs    int64
	CompactTime   time.Duration
	CompactMsgs   int64
	CompactEvents int // events surviving compaction
	StateCopyTime time.Duration
	StateCopyMsgs int64
}

// StateVsAction measures the three strategies for each decoupled-period
// length. The scenario: two instances share a textfield; instance A keeps
// editing while B is decoupled; afterwards B must reach A's state.
func StateVsAction(missed []int) ([]StateVsActionRow, error) {
	var rows []StateVsActionRow
	for _, n := range missed {
		row := StateVsActionRow{MissedActions: n}

		// Record A's actions during the decoupled period once.
		log := replay.NewLog(0)
		for i := 0; i < n; i++ {
			log.Record(&widget.Event{Path: "/field", Name: widget.EventChanged,
				Args: []attr.Value{attr.String(fmt.Sprintf("edit-%d", i))}})
		}
		final := fmt.Sprintf("edit-%d", n-1)

		// Strategy 1: naive replay of every action through the coupled
		// group.
		t, msgs, err := runReplayStrategy(log, final)
		if err != nil {
			return nil, fmt.Errorf("replay(%d): %w", n, err)
		}
		row.ReplayTime, row.ReplayMsgs = t, msgs

		// Strategy 2: compacted replay.
		compacted := replay.NewLog(0)
		for _, e := range log.Events() {
			e := e
			compacted.Record(&e)
		}
		compacted.Compact()
		row.CompactEvents = compacted.Len()
		t, msgs, err = runReplayStrategy(compacted, final)
		if err != nil {
			return nil, fmt.Errorf("compact(%d): %w", n, err)
		}
		row.CompactTime, row.CompactMsgs = t, msgs

		// Strategy 3: one synchronization by state.
		t, msgs, err = runStateCopyStrategy(final)
		if err != nil {
			return nil, fmt.Errorf("statecopy(%d): %w", n, err)
		}
		row.StateCopyTime, row.StateCopyMsgs = t, msgs

		rows = append(rows, row)
	}
	return rows, nil
}

// runReplayStrategy sets up a fresh coupled pair, replays the log from A,
// and waits until B holds the final value.
func runReplayStrategy(log *replay.Log, final string) (took time.Duration, msgs int64, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		_, bed, cl := newBed(tb, 2, fieldSpec, 0, server.Options{}, client.Options{})
		bed.Star("/field", cl...)
		before, _ := bed.Traffic()
		start := time.Now()
		_, err := log.Replay(func(e *widget.Event) error {
			_, err := DispatchRetry(cl[0], e)
			return err
		})
		must(tb, err)
		waitValue(tb, "/field", widget.AttrValue, final, cl...)
		took = time.Since(start)
		msgs, _ = bed.Traffic()
		msgs -= before
	})
	return took, msgs, err
}

// runStateCopyStrategy sets up a fresh pair where A already holds the final
// state, then performs one CopyTo.
func runStateCopyStrategy(final string) (took time.Duration, msgs int64, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		_, bed, cl := newBed(tb, 2, fieldSpec, 0, server.Options{}, client.Options{})
		declare(tb, "/field", cl)
		a, b := cl[0], cl[1]
		w, err := a.Registry().Lookup("/field")
		must(tb, err)
		w.SetAttr(widget.AttrValue, attr.String(final))
		before, _ := bed.Traffic()
		start := time.Now()
		must(tb, a.CopyTo("/field", b.Ref("/field"), false))
		waitValue(tb, "/field", widget.AttrValue, final, b)
		took = time.Since(start)
		msgs, _ = bed.Traffic()
		msgs -= before
	})
	return took, msgs, err
}
