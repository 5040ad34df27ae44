package toplists

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/shard"
	"repro/internal/toplist"
)

// distScale is a deliberately small world: the distributed acceptance
// test runs the same simulation six times (serial, pipelined, three
// worker counts, and a kill run), so each run must be cheap — the
// property under test is byte-identity, not scale.
func distScale() Scale {
	s := TestScale()
	s.Population.Days = 12
	s.Population.Sites = 3000
	s.Population.BirthsPerDay = 25
	s.Population.SmallASes = 60
	s.ListSize = 400
	s.HeadSize = 20
	s.BurnInDays = 10
	return s
}

// archiveDigest folds every snapshot of every provider and day —
// names in rank order plus the parallel compact IDs — into one hash,
// so "archives are bitwise identical" collapses to one string compare.
func archiveDigest(t *testing.T, src Source) string {
	t.Helper()
	h := sha256.New()
	for _, p := range src.Providers() {
		for d := src.First(); d <= src.Last(); d++ {
			l := src.Get(p, d)
			if l == nil {
				t.Fatalf("missing snapshot %s day %d", p, d)
			}
			fmt.Fprintf(h, "%s/%d\n", p, d)
			ids := l.IDs()
			for i, n := range l.Names() {
				fmt.Fprintf(h, "%s,", n)
				if ids != nil {
					binary.Write(h, binary.LittleEndian, ids[i]) //nolint:errcheck
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// startShardWorkers boots n shard workers behind real HTTP sockets.
func startShardWorkers(t *testing.T, n int) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	srvs := make([]*httptest.Server, n)
	for i := range urls {
		mux := http.NewServeMux()
		shard.NewWorker().Mount(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		srvs[i] = srv
	}
	return urls, srvs
}

// withWorkers returns s with its engine parallelism set to n.
func withWorkers(s Scale, n int) Scale {
	s.Workers = n
	return s
}

// TestDistributedEquivalence pins the determinism contract of the
// distributed generation path: the archive produced with per-day
// stepping farmed out to remote shard workers over real HTTP sockets
// is bitwise identical to the in-process serial reference, for any
// worker count — worker topology is a wall-clock knob, never a results
// knob (mirroring the engine's own Workers contract).
func TestDistributedEquivalence(t *testing.T) {
	scale := distScale()
	ctx := context.Background()

	serial, err := Simulate(ctx, WithScale(withWorkers(scale, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := archiveDigest(t, serial.Archive)

	t.Run("pipelined", func(t *testing.T) {
		study, err := Simulate(ctx, WithScale(withWorkers(scale, 4)))
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveDigest(t, study.Archive); got != want {
			t.Fatalf("pipelined archive differs from serial reference\n got %s\nwant %s", got, want)
		}
	})

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("distributed-%dworkers", workers), func(t *testing.T) {
			urls, _ := startShardWorkers(t, workers)
			study, err := Simulate(ctx, WithScale(scale), WithRemoteWorkers(urls...))
			if err != nil {
				t.Fatal(err)
			}
			if got := archiveDigest(t, study.Archive); got != want {
				t.Fatalf("distributed(%d) archive differs from serial reference\n got %s\nwant %s", workers, got, want)
			}
		})
	}
}

// killSink closes a worker server at a fixed day boundary — the
// mid-run worker death TestDistributedKillReassign injects. Closing
// both the listener and every client connection makes the next request
// to that worker fail fast instead of hanging.
type killSink struct {
	day  toplist.Day
	srv  *httptest.Server
	once sync.Once
}

func (k *killSink) Put(string, toplist.Day, *toplist.List) error { return nil }

func (k *killSink) EndDay(d toplist.Day) error {
	if d >= k.day {
		k.once.Do(func() {
			k.srv.CloseClientConnections()
			k.srv.Close()
		})
	}
	return nil
}

// TestDistributedKillReassign kills one of two workers partway through
// a distributed run: the coordinator must reseed the dead worker's
// shard on the survivor (the reassignment counter moves) and the final
// archive must still match the serial reference bit for bit.
func TestDistributedKillReassign(t *testing.T) {
	scale := distScale()
	ctx := context.Background()

	serial, err := Simulate(ctx, WithScale(withWorkers(scale, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := archiveDigest(t, serial.Archive)

	urls, srvs := startShardWorkers(t, 2)
	_, eng, coord, err := core.NewDistributedEngine(scale, urls,
		shard.WithCoordinatorRetry(httpx.Policy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	days := scale.Population.Days
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	arch.Expect(eng.Providers()...)
	killer := &killSink{day: 3, srv: srvs[1]}
	if err := eng.Run(ctx, days, engine.Tee(arch, killer)); err != nil {
		t.Fatal(err)
	}
	if coord.Reassigned() < 1 {
		t.Fatalf("reassigned = %d, want >= 1 (worker kill never reassigned a shard)", coord.Reassigned())
	}
	if got := archiveDigest(t, arch); got != want {
		t.Fatalf("archive differs from serial reference after worker kill\n got %s\nwant %s", got, want)
	}
}
