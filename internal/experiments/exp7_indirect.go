package experiments

import (
	"fmt"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/classroom"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// IndirectRow compares direct coupling of a dependent object (the rendered
// function display) against indirect coupling of its parameter field (§4:
// "partial coupling can be very efficient since it allows for indirect
// coupling ... For these dependent objects, direct coupling might be much
// more costly").
type IndirectRow struct {
	DisplayPoints int
	// Direct: the canvas itself is coupled; each update ships the points.
	DirectTime  time.Duration
	DirectBytes int64
	// Indirect: only the term field is coupled; each environment
	// regenerates the display locally.
	IndirectTime  time.Duration
	IndirectBytes int64
}

// IndirectCoupling sweeps the dependent display's size. Each trial performs
// one teacher update and waits until the student side holds the result.
func IndirectCoupling(points []int) ([]IndirectRow, error) {
	var rows []IndirectRow
	for _, m := range points {
		direct, dbytes, err := runDirectCoupling(m)
		if err != nil {
			return nil, fmt.Errorf("direct(%d): %w", m, err)
		}
		indirect, ibytes, err := runIndirectCoupling(m)
		if err != nil {
			return nil, fmt.Errorf("indirect(%d): %w", m, err)
		}
		rows = append(rows, IndirectRow{
			DisplayPoints: m,
			DirectTime:    direct, DirectBytes: dbytes,
			IndirectTime: indirect, IndirectBytes: ibytes,
		})
	}
	return rows, nil
}

// runDirectCoupling couples the canvases and ships one draw event carrying
// the full m-point rendering.
func runDirectCoupling(m int) (took time.Duration, bytes int64, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		_, bed, cl := newBed(tb, 2, `canvas display width=640 height=400`, 0,
			server.Options{}, client.Options{})
		bed.Star("/display", cl...)
		stroke := make([]attr.Point, m)
		for i := range stroke {
			stroke[i] = attr.Point{X: int32(i), Y: int32(i % 400)}
		}
		_, before := bed.Traffic()
		start := time.Now()
		must(tb, cl[0].DispatchChecked(&widget.Event{
			Path: "/display", Name: widget.EventDraw,
			Args: []attr.Value{attr.PointList(stroke...)},
		}))
		waitStrokes(tb, cl[1], "/display", m)
		took = time.Since(start)
		_, bytes = bed.Traffic()
		bytes -= before
	})
	return took, bytes, err
}

// waitStrokes waits until the canvas at path on c holds m points.
func waitStrokes(tb testbed.TB, c *client.Client, path string, m int) {
	testbed.Wait(tb, fmt.Sprintf("%d points on %s", m, path), func() bool {
		w, err := c.Registry().Lookup(path)
		must(tb, err)
		return len(w.Attr(widget.AttrStrokes).AsPointList()) == m
	})
}

// runIndirectCoupling couples only the term fields; the displays regenerate
// locally from the replicated term.
func runIndirectCoupling(m int) (took time.Duration, bytes int64, err error) {
	spec := `form env title="env"
  textfield term value="x"
  canvas display width=640 height=400`
	err = testbed.Run(func(tb testbed.TB) {
		_, bed, cl := newBed(tb, 2, spec, 0, server.Options{}, client.Options{})
		// Wire local regeneration in both environments, at the requested
		// resolution.
		for _, cli := range cl {
			reg := cli.Registry()
			w, err := reg.Lookup("/env/term")
			must(tb, err)
			must(tb, w.AddCallback(widget.EventChanged, func(e *widget.Event) {
				classroom.RenderTerm(reg, "/env/display", e.Args[0].AsString(), m)
			}))
		}
		bed.Star("/env/term", cl...)
		_, before := bed.Traffic()
		start := time.Now()
		must(tb, cl[0].DispatchChecked(&widget.Event{
			Path: "/env/term", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("2*x^2 - 3*x + 1")},
		}))
		waitStrokes(tb, cl[1], "/env/display", m)
		took = time.Since(start)
		_, bytes = bed.Traffic()
		bytes -= before
	})
	return took, bytes, err
}
