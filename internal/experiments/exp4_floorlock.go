package experiments

import (
	"fmt"
	"strings"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// FloorLockRow measures the floor-control cost at one event granularity
// (§3.2: "Such a locking mechanism might become costly if the events were
// fine-grained, such as ... the typing of single characters. However, in our
// model, most events are high-level callback events").
type FloorLockRow struct {
	CharsPerEvent int
	Events        int
	TotalTime     time.Duration
	PerChar       time.Duration
	Messages      int64
	// Rejections counts floor-control denials that forced retries.
	Rejections int
	// UncoupledTime is the same editing performed on an uncoupled object
	// (pure local cost); the difference is the synchronization overhead.
	UncoupledTime time.Duration
	// OverheadShare = (TotalTime - UncoupledTime) / TotalTime.
	OverheadShare float64
}

// FloorControl transfers a fixed text volume between two coupled textareas
// using 'edit' events of varying granularity.
func FloorControl(textLen int, granularities []int) ([]FloorLockRow, error) {
	payload := strings.Repeat("a", textLen)
	var rows []FloorLockRow
	for _, chars := range granularities {
		if chars <= 0 || chars > textLen {
			return nil, fmt.Errorf("experiments: bad granularity %d", chars)
		}
		coupledTime, msgs, events, rejections, err := runEditing(payload, chars, true)
		if err != nil {
			return nil, err
		}
		localTime, _, _, _, err := runEditing(payload, chars, false)
		if err != nil {
			return nil, err
		}
		share := 0.0
		if coupledTime > 0 {
			share = float64(coupledTime-localTime) / float64(coupledTime)
		}
		rows = append(rows, FloorLockRow{
			CharsPerEvent: chars,
			Events:        events,
			TotalTime:     coupledTime,
			PerChar:       coupledTime / time.Duration(textLen),
			Messages:      msgs,
			Rejections:    rejections,
			UncoupledTime: localTime,
			OverheadShare: share,
		})
	}
	return rows, nil
}

func runEditing(payload string, chars int, coupled bool) (took time.Duration, msgs int64, events, rejections int, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		srv, bed, cl := newBed(tb, 2, `textarea doc text=""`, 0, server.Options{}, client.Options{})
		if coupled {
			bed.Star("/doc", cl...)
		} else {
			declare(tb, "/doc", cl)
		}
		before, _ := quiescentTraffic(tb, srv, bed)
		start := time.Now()
		for pos := 0; pos < len(payload); pos += chars {
			end := pos + chars
			if end > len(payload) {
				end = len(payload)
			}
			ev := &widget.Event{Path: "/doc", Name: widget.EventEdit, Args: []attr.Value{
				attr.Int(int64(pos)), attr.Int(0), attr.String(payload[pos:end]),
			}}
			rej, err := DispatchRetry(cl[0], ev)
			must(tb, err)
			rejections += rej
			events++
		}
		if coupled {
			waitValue(tb, "/doc", widget.AttrText, payload, cl...)
		}
		took = time.Since(start)
		msgs, _ = quiescentTraffic(tb, srv, bed)
		msgs -= before
	})
	return took, msgs, events, rejections, err
}
