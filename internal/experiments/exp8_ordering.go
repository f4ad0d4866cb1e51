package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/baseline/timestamp"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// OrderingRow compares centralized-control locking against optimistic
// timestamp ordering at one conflict rate (§2.1's two ordering approaches
// for replicated architectures).
type OrderingRow struct {
	Users      int
	OpsPerUser int
	HotShare   float64 // fraction of operations targeting the shared object
	// Centralized (COSOFT floor control).
	CentralTime      time.Duration
	CentralRejected  int64 // floor denials (each forced a user retry)
	CentralCompleted int
	// Optimistic (timestamped, GROVE style).
	OptimisticTime time.Duration
	Conflicts      int64
	Undos          int64
}

// OrderingComparison sweeps the share of operations that touch the
// contended, group-coupled object; the remainder touch private objects.
func OrderingComparison(users, opsPerUser int, hotShares []float64) ([]OrderingRow, error) {
	var rows []OrderingRow
	for _, share := range hotShares {
		row := OrderingRow{Users: users, OpsPerUser: opsPerUser, HotShare: share}
		if err := runCentralized(&row); err != nil {
			return nil, fmt.Errorf("centralized(%.2f): %w", share, err)
		}
		if err := runOptimistic(&row); err != nil {
			return nil, fmt.Errorf("optimistic(%.2f): %w", share, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

const orderingSpec = `form f
  textfield hot value=""
  textfield private value=""`

func runCentralized(row *OrderingRow) error {
	return testbed.Run(func(tb testbed.TB) {
		srv, bed, cl := newBed(tb, row.Users, orderingSpec, 0, server.Options{}, client.Options{})
		bed.Star("/f/hot", cl...)
		var wg sync.WaitGroup
		completed := make([]int, row.Users)
		start := time.Now()
		for u := range cl {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(u)))
				for i := 0; i < row.OpsPerUser; i++ {
					path := "/f/private"
					if r.Float64() < row.HotShare {
						path = "/f/hot"
					}
					ev := &widget.Event{Path: path, Name: widget.EventChanged,
						Args: []attr.Value{attr.String(fmt.Sprintf("u%d-%d", u, i))}}
					if _, err := DispatchRetry(cl[u], ev); err == nil {
						completed[u]++
					}
				}
			}(u)
		}
		wg.Wait()
		row.CentralTime = time.Since(start)
		for _, n := range completed {
			row.CentralCompleted += n
		}
		row.CentralRejected = int64(srv.Stats().LockFailures)
	})
}

func runOptimistic(row *OrderingRow) error {
	// 500µs propagation delay opens the concurrency windows a LAN would.
	s, err := timestamp.NewWithDelay(row.Users, 500*time.Microsecond)
	if err != nil {
		return err
	}
	defer s.Stop()
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < row.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(u)))
			for i := 0; i < row.OpsPerUser; i++ {
				key := fmt.Sprintf("private-%d", u)
				if r.Float64() < row.HotShare {
					key = "hot"
				}
				s.Node(u).Apply(key, fmt.Sprintf("u%d-%d", u, i))
			}
		}(u)
	}
	wg.Wait()
	s.Quiesce()
	row.OptimisticTime = time.Since(start)
	_, row.Conflicts, row.Undos = s.Stats()
	if !s.Converged("hot") {
		return fmt.Errorf("optimistic replicas diverged")
	}
	return nil
}
