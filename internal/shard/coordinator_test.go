package shard

import (
	"context"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/providers"
)

func newGen(t *testing.T) *providers.Generator {
	t.Helper()
	g, err := providers.NewGenerator(testModel(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fastRetry keeps failover tests quick: tiny backoff, few attempts.
func fastRetry() CoordinatorOption {
	return WithCoordinatorRetry(httpx.Policy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond})
}

func runDays(t *testing.T, c *Coordinator, from, to int) {
	t.Helper()
	for d := from; d < to; d++ {
		if err := c.StepDay(context.Background(), d); err != nil {
			t.Fatalf("StepDay(%d): %v", d, err)
		}
	}
}

// TestCoordinatorEquivalence: a coordinator over real worker sockets
// reproduces the serial generator bit for bit, for one and several
// workers, with more shards than workers too.
func TestCoordinatorEquivalence(t *testing.T) {
	opts := testOpts()
	for _, tc := range []struct {
		name            string
		workers, shards int
	}{
		{"1worker", 1, 0},
		{"2workers", 2, 0},
		{"2workers-4shards", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			for i := 0; i < tc.workers; i++ {
				_, srv := newTestWorker(t)
				urls = append(urls, srv.URL)
			}
			ref := newGen(t)
			dist := newGen(t)
			copts := []CoordinatorOption{fastRetry()}
			if tc.shards > 0 {
				copts = append(copts, WithShards(tc.shards))
			}
			c, err := NewCoordinator(dist, testJob(t), urls, copts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			days := 4
			for d := -opts.BurnInDays; d < days; d++ {
				ref.StepDay(d, 1)
				if err := c.StepDay(context.Background(), d); err != nil {
					t.Fatalf("StepDay(%d): %v", d, err)
				}
				for _, p := range ref.EnabledProviders() {
					if !providers.SameBits(ref.FrontValues(p), dist.FrontValues(p)) {
						t.Fatalf("day %d: %s diverges", d, p)
					}
				}
			}
			if c.DaysMerged() != opts.BurnInDays+days {
				t.Fatalf("merged %d days", c.DaysMerged())
			}
		})
	}
}

// TestCoordinatorReassign kills one of two workers mid-run: the dead
// worker's shard is reseeded on the survivor within the day, the
// reassignment counter moves, and the output still matches the serial
// reference bit for bit.
func TestCoordinatorReassign(t *testing.T) {
	opts := testOpts()
	_, srvA := newTestWorker(t)
	_, srvB := newTestWorker(t)

	ref := newGen(t)
	dist := newGen(t)
	c, err := NewCoordinator(dist, testJob(t), []string{srvA.URL, srvB.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	days := 4
	killAt := 1
	for d := -opts.BurnInDays; d < days; d++ {
		if d == killAt {
			srvB.CloseClientConnections()
			srvB.Close()
		}
		ref.StepDay(d, 1)
		if err := c.StepDay(context.Background(), d); err != nil {
			t.Fatalf("StepDay(%d): %v", d, err)
		}
		for _, p := range ref.EnabledProviders() {
			if !providers.SameBits(ref.FrontValues(p), dist.FrontValues(p)) {
				t.Fatalf("day %d: %s diverges after worker kill", d, p)
			}
		}
	}
	if c.Reassigned() < 1 {
		t.Fatalf("reassigned = %d, want >= 1", c.Reassigned())
	}
}

// TestCoordinatorAllWorkersDown: with every worker dead the step fails
// with a bounded error instead of hanging.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	opts := testOpts()
	_, srv := newTestWorker(t)
	g := newGen(t)
	c, err := NewCoordinator(g, testJob(t), []string{srv.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	c.retry.Jitter = func() float64 { return 0.5 }
	c.retry.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
	runDays(t, c, -opts.BurnInDays, -opts.BurnInDays+1)
	srv.CloseClientConnections()
	srv.Close()
	if err := c.StepDay(context.Background(), -opts.BurnInDays+1); err == nil {
		t.Fatal("StepDay succeeded with every worker down")
	}
}

// TestCoordinatorOutOfOrder: day sequencing is enforced.
func TestCoordinatorOutOfOrder(t *testing.T) {
	opts := testOpts()
	_, srv := newTestWorker(t)
	g := newGen(t)
	c, err := NewCoordinator(g, testJob(t), []string{srv.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runDays(t, c, -opts.BurnInDays, -opts.BurnInDays+1)
	if err := c.StepDay(context.Background(), 5); err == nil {
		t.Fatal("out-of-order StepDay accepted")
	}
}

// TestCoordinatorValidation: constructor refusals.
func TestCoordinatorValidation(t *testing.T) {
	g := newGen(t)
	if _, err := NewCoordinator(g, Job{}, []string{"http://x"}); err == nil {
		t.Fatal("zero job accepted")
	}
	if _, err := NewCoordinator(g, testJob(t), nil); err == nil {
		t.Fatal("no workers accepted")
	}
}
