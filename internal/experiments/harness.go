// Package experiments implements the reproduction harness for every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index).
// Each experiment returns structured rows; cmd/experiments prints them and
// the root-level benchmarks wrap them as testing.B benchmarks. Every run
// builds its server and instances on a test bed (internal/testbed), whose
// teardown judges the server's invariants like any test's.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// fieldSpec is the minimal one-textfield UI used by several experiments.
const fieldSpec = `textfield field value=""`

// newBed starts a server with opts on a bed whose in-process links carry the
// given one-way latency, and dials n instances, each with its own widget
// registry built from spec. Unless opts sets a BatchLimit, the server sends
// one message per frame, as the paper's instances received them, so the
// bed's frame counts are the paper's message counts.
func newBed(tb testbed.TB, n int, spec string, latency time.Duration, opts server.Options, copts client.Options) (*server.Server, *testbed.Bed, []*client.Client) {
	if opts.BatchLimit == 0 {
		opts.BatchLimit = 1
	}
	srv := server.New(opts)
	bed := testbed.New(tb, srv, testbed.Options{Latency: latency})
	if copts.RPCTimeout == 0 {
		copts.RPCTimeout = 30 * time.Second
	}
	cl := make([]*client.Client, n)
	for i := range cl {
		cl[i] = bed.Dial(testbed.Member{AppType: "bench", User: fmt.Sprintf("user%d", i), Spec: spec, Options: copts})
	}
	return srv, bed, cl
}

// declare declares the subtree at path on every instance of cl.
func declare(tb testbed.TB, path string, cl []*client.Client) {
	for _, c := range cl {
		must(tb, c.DeclareTree(path))
	}
}

// waitValue waits until the widget at path reports want for attrName on
// every instance of cl.
func waitValue(tb testbed.TB, path, attrName, want string, cl ...*client.Client) {
	testbed.Wait(tb, fmt.Sprintf("%s %s=%q", path, attrName, want), func() bool {
		for _, c := range cl {
			w, err := c.Registry().Lookup(path)
			if err != nil || w.Attr(attrName).AsString() != want {
				return false
			}
		}
		return true
	})
}

// quiescentTraffic returns the bed's frame and byte counts once srv is
// quiescent: no event awaits an ack and no envelope is queued, so every
// ExecAck, result and unlock notice of the traffic so far is on the wire and
// counted. Pending events are read first: an event's unlock notices are
// queued before it stops counting as pending.
func quiescentTraffic(tb testbed.TB, srv *server.Server, bed *testbed.Bed) (frames, bytes int64) {
	testbed.Wait(tb, "a quiescent server", func() bool {
		return srv.Stats().PendingEvents == 0 && srv.Stats().OutboxDepth == 0
	})
	return bed.Traffic()
}

// must ends the run with err.
func must(tb testbed.TB, err error) {
	if err != nil {
		tb.Fatalf("%w", err)
	}
}

// DispatchRetry dispatches an event, retrying while the group lock is held
// by an in-flight event — the programmatic equivalent of a user whose action
// is disabled until the floor is free ("Actions on locked objects are
// disabled", §3.2). It returns the number of rejected attempts.
func DispatchRetry(cli *client.Client, ev *widget.Event) (int, error) {
	rejections := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cli.DispatchChecked(ev)
		if err == nil {
			return rejections, nil
		}
		if !errorsIsRejected(err) || time.Now().After(deadline) {
			return rejections, err
		}
		rejections++
		time.Sleep(50 * time.Microsecond)
	}
}

func errorsIsRejected(err error) bool {
	// Both outcomes mean "the floor is taken, try again": the server denied
	// the group lock, or the local widget is currently disabled by an
	// in-flight event's Exec.
	return errors.Is(err, client.ErrRejected) || errors.Is(err, widget.ErrDisabled)
}
