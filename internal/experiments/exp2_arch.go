package experiments

import (
	"fmt"
	"sync"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/baseline/multiplex"
	"cosoft/internal/baseline/uirepl"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// ArchLatencyRow is one measurement of the architecture comparison (Figures
// 1–3 behaviour): per-interaction latency perceived by the acting user, and
// message cost, for a given architecture / population / network latency.
type ArchLatencyRow struct {
	Architecture string
	Users        int
	Latency      time.Duration // one-way network latency configured
	PerEvent     time.Duration // mean time until the actor sees the effect
	Events       int
	Messages     int64 // frames (COSOFT) or logical messages (baselines)
}

// ArchParams configures the architecture comparison sweep.
type ArchParams struct {
	Users     []int
	Latencies []time.Duration
	// EventsPerUser is the number of interactions each user performs.
	EventsPerUser int
	// SharedFraction is the fraction of interactions touching the shared
	// object; the rest edit the user's private field. The paper's training
	// scenario is mostly individual work with occasional shared actions.
	SharedFraction float64
	// SemanticCost is the execution time of each shared (semantic) action
	// in the UI-replicated architecture — the knob behind the paper's "if
	// such a semantic action is time-consuming, it may block the execution
	// of other user's actions".
	SemanticCost time.Duration
}

// DefaultArchParams returns the sweep used by cmd/experiments.
func DefaultArchParams() ArchParams {
	return ArchParams{
		Users:          []int{2, 4, 8},
		Latencies:      []time.Duration{0, 2 * time.Millisecond},
		EventsPerUser:  12,
		SharedFraction: 0.25,
		SemanticCost:   time.Millisecond,
	}
}

const archSpec = `form app
  textfield field value=""
  textfield private value=""`

// pickPath deterministically interleaves shared and private interactions at
// the configured fraction.
func pickPath(i int, sharedFraction float64) string {
	if sharedFraction >= 1 || float64(i%4) < sharedFraction*4 {
		if sharedFraction > 0 {
			return "/app/field"
		}
	}
	return "/app/private"
}

// ArchComparison measures all three architectures across the sweep.
func ArchComparison(p ArchParams) ([]ArchLatencyRow, error) {
	var rows []ArchLatencyRow
	for _, users := range p.Users {
		for _, lat := range p.Latencies {
			mux, err := measureMultiplex(users, lat, p.EventsPerUser, p.SharedFraction)
			if err != nil {
				return nil, err
			}
			rows = append(rows, mux)
			ui, err := measureUIRepl(users, lat, p.EventsPerUser, p.SharedFraction, p.SemanticCost)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ui)
			cos, err := measureCosoft(users, lat, p.EventsPerUser, p.SharedFraction)
			if err != nil {
				return nil, err
			}
			rows = append(rows, cos)
		}
	}
	return rows, nil
}

// measureMultiplex: all users act concurrently; every interaction pays the
// full round trip through the single instance and serializes there.
func measureMultiplex(users int, lat time.Duration, events int, sharedFraction float64) (ArchLatencyRow, error) {
	s, err := multiplex.New(multiplex.Options{Users: users, Latency: lat, Spec: archSpec})
	if err != nil {
		return ArchLatencyRow{}, err
	}
	defer s.Stop()
	var wg sync.WaitGroup
	errs := make(chan error, users)
	waits := make([]time.Duration, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				// In the multiplex architecture even "private" work lives in
				// the single shared instance — every interaction pays the
				// round trip and the serialization.
				ev := &widget.Event{Path: pickPath(i, sharedFraction), Name: widget.EventChanged,
					Args: []attr.Value{attr.String(fmt.Sprintf("u%d-%d", u, i))}}
				start := time.Now()
				if err := s.Do(u, ev); err != nil {
					errs <- err
					return
				}
				// Response time as perceived by the user: includes queueing
				// behind every other participant's serialized input.
				waits[u] += time.Since(start)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return ArchLatencyRow{}, err
	}
	var total time.Duration
	for _, w := range waits {
		total += w
	}
	in, out := s.Messages()
	return ArchLatencyRow{
		Architecture: "multiplex",
		Users:        users,
		Latency:      lat,
		PerEvent:     total / time.Duration(users*events),
		Events:       users * events,
		Messages:     in + out,
	}, nil
}

// measureUIRepl: every interaction is a semantic action (the worst case the
// paper highlights); they serialize in the shared semantic process.
func measureUIRepl(users int, lat time.Duration, events int, sharedFraction float64, semCost time.Duration) (ArchLatencyRow, error) {
	s, err := uirepl.New(uirepl.Options{Users: users, Latency: lat, Spec: archSpec, SemanticCost: semCost})
	if err != nil {
		return ArchLatencyRow{}, err
	}
	defer s.Stop()
	var wg sync.WaitGroup
	errs := make(chan error, users)
	waits := make([]time.Duration, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				val := fmt.Sprintf("u%d-%d", u, i)
				path := pickPath(i, sharedFraction)
				start := time.Now()
				var err error
				if path == "/app/private" {
					// Private typing is a syntactic action on the local
					// replica.
					err = s.DoLocal(u, &widget.Event{Path: path, Name: widget.EventChanged,
						Args: []attr.Value{attr.String(val)}})
				} else {
					// Shared interactions are semantic actions through the
					// single shared component.
					err = s.DoSemantic(u, func(state map[string]string) []uirepl.Update {
						state["field"] = val
						return []uirepl.Update{{Path: path, Name: widget.AttrValue, Text: val}}
					})
				}
				if err != nil {
					errs <- err
					return
				}
				waits[u] += time.Since(start)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return ArchLatencyRow{}, err
	}
	var total time.Duration
	for _, w := range waits {
		total += w
	}
	sem, updates := s.Messages()
	return ArchLatencyRow{
		Architecture: "ui-replicated",
		Users:        users,
		Latency:      lat,
		PerEvent:     total / time.Duration(users*events),
		Events:       users * events,
		Messages:     sem + updates,
	}, nil
}

// measureCosoft: all users' fields are coupled into one group; each user
// acts on its own replica — local feedback is immediate, and the
// DispatchChecked round trip measures the floor-control cost.
func measureCosoft(users int, lat time.Duration, events int, sharedFraction float64) (row ArchLatencyRow, err error) {
	err = testbed.Run(func(tb testbed.TB) {
		_, bed, cl := newBed(tb, users, archSpec, lat, server.Options{}, client.Options{})
		bed.Star("/app/field", cl...)
		baseline, _ := bed.Traffic()
		var wg sync.WaitGroup
		waits := make([]time.Duration, users)
		errs := make(chan error, users)
		for u := range cl {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				for i := 0; i < events; i++ {
					ev := &widget.Event{Path: pickPath(i, sharedFraction), Name: widget.EventChanged,
						Args: []attr.Value{attr.String(fmt.Sprintf("u%d-%d", u, i))}}
					start := time.Now()
					// Private events run entirely locally; shared events pay the
					// floor-control round trip, with contenders retrying exactly
					// as a user whose widget re-enables.
					if _, err := DispatchRetry(cl[u], ev); err != nil {
						errs <- err
						return
					}
					waits[u] += time.Since(start)
				}
			}(u)
		}
		wg.Wait()
		close(errs)
		must(tb, <-errs)
		var total time.Duration
		for _, w := range waits {
			total += w
		}
		frames, _ := bed.Traffic()
		row = ArchLatencyRow{
			Architecture: "cosoft",
			Users:        users,
			Latency:      lat,
			PerEvent:     total / time.Duration(users*events),
			Events:       users * events,
			Messages:     frames - baseline,
		}
	})
	return row, err
}
