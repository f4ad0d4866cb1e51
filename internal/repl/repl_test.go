package repl

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// dialer returns a dial for instances of one fresh server's bed.
func dialer(t *testing.T) func(user string) *client.Client {
	bed := testbed.New(t, server.New(server.Options{}), testbed.Options{})
	return func(user string) *client.Client {
		return bed.Dial(testbed.Member{AppType: "repl", User: user})
	}
}

// run feeds a script and returns the combined output.
func run(t *testing.T, cli *client.Client, script string) string {
	t.Helper()
	var out bytes.Buffer
	r := New(cli, &out)
	if err := r.Run(strings.NewReader(script)); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestBuildTreeGetEvent(t *testing.T) {
	dial := dialer(t)
	cli := dial("u1")
	out := run(t, cli, `
# comments and blank lines are skipped

build / textfield note value="start"
tree /note
get /note value
event /note changed "typed text"
get /note value
id
help
quit
get /note value
`)
	for _, want := range []string{
		"created /note (textfield)",
		`"start"`,
		"dispatched /note!changed",
		`"typed text"`,
		string(cli.ID()),
		"help — list commands",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// quit stops processing: the final get must not have run. The string
	// appears twice before quit (the event echo and one get).
	if strings.Count(out, `"typed text"`) != 2 {
		t.Errorf("commands after quit were executed:\n%s", out)
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	dial := dialer(t)
	cli := dial("u1")
	out := run(t, cli, `
bogus
get /missing value
event /missing changed "x"
build /
couple /a
id
`)
	if got := strings.Count(out, "error:"); got != 5 {
		t.Errorf("expected 5 errors, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, string(cli.ID())) {
		t.Error("REPL stopped after errors")
	}
}

func TestCoupleFlowBetweenTwoREPLs(t *testing.T) {
	dial := dialer(t)
	a := dial("alice")
	b := dial("bob")
	run(t, a, `
build / textfield pad value=""
declare /pad
`)
	run(t, b, `
build / textfield pad value="theirs"
declare /pad
`)
	out := run(t, a, "instances\n")
	if !strings.Contains(out, string(b.ID())) {
		t.Fatalf("instances missing %s:\n%s", b.ID(), out)
	}
	out = run(t, a, strings.Join([]string{
		"couple /pad " + string(b.ID()) + " /pad",
		"links /pad",
		`event /pad changed "shared"`,
	}, "\n"))
	if !strings.Contains(out, "coupled /pad") || !strings.Contains(out, "coupled with") {
		t.Fatalf("coupling output:\n%s", out)
	}
	testbed.Wait(t, "shared at b", func() bool {
		w, err := b.Registry().Lookup("/pad")
		return err == nil && w.Attr(widget.AttrValue).AsString() == "shared"
	})
	// copyfrom + undo + inspect round trip.
	out = run(t, b, strings.Join([]string{
		"inspect " + string(a.ID()) + " /pad",
		"copyfrom " + string(a.ID()) + " /pad /pad",
		"undo /pad",
		"redo /pad",
		"decouple /pad " + string(a.ID()) + " /pad",
	}, "\n"))
	for _, want := range []string{"textfield pad", "copied", "undone", "redone", "decoupled"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSendCommand(t *testing.T) {
	dial := dialer(t)
	a := dial("alice")
	b := dial("bob")
	got := make(chan string, 2)
	b.OnCommand("note", func(from couple.InstanceID, payload []byte) {
		got <- string(from) + ":" + string(payload)
	})
	// Targeted send (the instance id contains '-').
	out := run(t, a, "send note "+string(b.ID())+" hello bob\n")
	if !strings.Contains(out, "sent") {
		t.Fatalf("output:\n%s", out)
	}
	select {
	case msg := <-got:
		if msg != string(a.ID())+":hello bob" {
			t.Errorf("delivered %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("command not delivered")
	}
	// Broadcast send (no instance token).
	run(t, a, "send note broadcast-text\n")
	select {
	case msg := <-got:
		if !strings.HasSuffix(msg, ":broadcast-text") {
			t.Errorf("delivered %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast not delivered")
	}
}
