package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpx"
	"repro/internal/parallel"
	"repro/internal/providers"
	"repro/internal/serve"
)

// Coordinator farms a generation run's per-day stepping out to shard
// workers and merges their partial results into the local Generator.
// It implements engine.RemoteStepper, so the engine's serial and
// pipelined day loops drive it exactly like an in-process StepDay —
// and because shard boundaries are parallel.Shard of (shards, n) and
// every merge is a positional copy of worker-computed values, the
// resulting archive is byte-identical to a local run.
//
// Worker health flows through fleet.PeerSet: each shard is assigned to
// the healthiest available worker, a worker that fails its RPC budget
// is marked failed (entering the set's jittered exponential backoff)
// and its shard is reseeded on another worker from the coordinator's
// merged front state — within the same day, never double-merging, so a
// mid-day kill -9 costs latency, not correctness.
type Coordinator struct {
	g      *providers.Generator
	job    Job
	peers  *fleet.PeerSet
	shards int
	n      int

	httpc  *http.Client
	retry  httpx.Policy
	logger *log.Logger

	sessions []*shardSession
	merged   int  // days merged so far (burn-in included)
	lastDay  int  // last merged day
	haveDay  bool // whether lastDay is meaningful

	metrics        *serve.Metrics
	daysTotal      *serve.Counter
	reassigned     *serve.Counter
	workerFailures *serve.Counter
}

// shardSession tracks one shard's current assignment. Only the
// goroutine stepping that shard touches it during a day; the
// coordinator is not safe for concurrent StepDay calls (the engine
// never makes them).
type shardSession struct {
	index  int
	lo, hi int
	peer   *fleet.Peer // nil when unassigned
	id     string      // worker-side session ID
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithShards overrides the shard count (default: one per worker URL).
// More shards than workers is legal and spreads reassignment cost;
// the count never changes output bytes.
func WithShards(n int) CoordinatorOption {
	return func(c *Coordinator) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithCoordinatorMetrics registers the coordinator's counters and
// per-worker lag gauges on m.
func WithCoordinatorMetrics(m *serve.Metrics) CoordinatorOption {
	return func(c *Coordinator) {
		c.metrics = m
		c.registerMetrics()
	}
}

// WithCoordinatorLogger routes coordinator logs (default: discarded).
func WithCoordinatorLogger(l *log.Logger) CoordinatorOption {
	return func(c *Coordinator) { c.logger = l }
}

// WithCoordinatorRetry replaces the per-request retry policy (default
// httpx.Default) — tests shrink it to keep failover fast.
func WithCoordinatorRetry(p httpx.Policy) CoordinatorOption {
	return func(c *Coordinator) { c.retry = p }
}

// WithHTTPClient overrides the HTTP client (tests inject httptest
// clients and tight timeouts).
func WithHTTPClient(hc *http.Client) CoordinatorOption {
	return func(c *Coordinator) { c.httpc = hc }
}

// NewCoordinator builds a coordinator over workerURLs for the run
// described by (g, job). The job must describe exactly the generator's
// world and options; JobFor derives it.
func NewCoordinator(g *providers.Generator, job Job, workerURLs []string, opts ...CoordinatorOption) (*Coordinator, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		g:      g,
		job:    job,
		n:      g.Model.W.Len(),
		shards: len(workerURLs),
		httpc:  &http.Client{Timeout: 2 * time.Minute},
		retry:  httpx.Default,
		logger: log.New(io.Discard, "", 0),
	}
	// The peer set supplies health tracking and jittered backoff;
	// its Remote machinery goes unused (workers speak /shard/v1, not
	// /archive/v1).
	ps, err := fleet.NewPeerSet(workerURLs)
	if err != nil {
		return nil, err
	}
	c.peers = ps
	for _, o := range opts {
		o(c)
	}
	if c.metrics == nil {
		c.metrics = serve.NewMetrics()
		c.registerMetrics()
	}
	for _, b := range parallel.Shards(c.shards, c.n) {
		c.sessions = append(c.sessions, &shardSession{index: len(c.sessions), lo: b[0], hi: b[1]})
	}
	if len(c.sessions) == 0 {
		return nil, fmt.Errorf("shard: empty world, nothing to shard")
	}
	return c, nil
}

func (c *Coordinator) registerMetrics() {
	c.daysTotal = c.metrics.Counter("shard_days_total",
		"Simulated days stepped through shard workers (burn-in included).")
	c.reassigned = c.metrics.Counter("shard_reassigned_total",
		"Shard sessions reassigned to another worker after failures.")
	c.workerFailures = c.metrics.Counter("shard_worker_failures_total",
		"Worker RPC failures observed (post-retry).")
}

// workerLag returns (registering lazily) the worker's lag gauge.
func (c *Coordinator) workerLag(url string) *serve.Gauge {
	return c.metrics.Gauge(
		fmt.Sprintf("shard_worker_lag_days{worker=%q}", url),
		"Days the worker's last completed step trails the coordinator's current day.")
}

// Reassigned returns how many shard reassignments have happened.
func (c *Coordinator) Reassigned() int64 { return c.reassigned.Value() }

// DaysMerged returns how many days have been merged (burn-in included).
func (c *Coordinator) DaysMerged() int { return c.merged }

// StepDay steps every shard to day on its assigned worker and merges
// the partial results into the generator — the distributed equivalent
// of Generator.StepDay(day, 1). Days must be sequential, burn-in
// included, exactly as the engine drives them.
func (c *Coordinator) StepDay(ctx context.Context, day int) error {
	if c.haveDay && day != c.lastDay+1 {
		return fmt.Errorf("shard: out-of-order StepDay: %d after %d", day, c.lastDay)
	}
	frames := make([]*Frame, len(c.sessions))
	errs := make([]error, len(c.sessions))
	var wg sync.WaitGroup
	for i := range c.sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i], errs[i] = c.stepShard(ctx, c.sessions[i], day)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	err := c.g.MergeDay(day, func(provider string, dst []float64) error {
		for i, f := range frames {
			vals := f.Field(provider)
			if vals == nil {
				return fmt.Errorf("shard %d frame missing provider %s", i, provider)
			}
			copy(dst[f.Lo:f.Hi], vals)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.merged++
	c.lastDay = day
	c.haveDay = true
	c.daysTotal.Add(1)
	for _, s := range c.sessions {
		if s.peer != nil {
			c.workerLag(s.peer.URL()).Set(0)
		}
	}
	return nil
}

// stepShard produces shard s's frame for day, reassigning the session
// to other workers on failure. A frame is returned exactly once per
// (shard, day): either the assigned worker steps it, or the session is
// dropped unmerged and reseeded elsewhere — never both, so a value can
// never be double-merged.
func (c *Coordinator) stepShard(ctx context.Context, s *shardSession, day int) (*Frame, error) {
	// Total strike budget across reassignments: enough to visit every
	// worker through a full retry cycle before giving up.
	maxStrikes := c.retry.Attempts * len(c.peers.Peers())
	var lastErr error
	for strikes := 0; strikes < maxStrikes; strikes++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.peer == nil {
			if err := c.assign(ctx, s, day); err != nil {
				lastErr = err
				c.workerFailures.Add(1)
				continue
			}
		}
		frame, err := c.stepOnce(ctx, s, day)
		if err == nil {
			s.peer.MarkOK()
			c.workerLag(s.peer.URL()).Set(int64(0))
			return frame, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		c.logger.Printf("shard %d day %d on %s: %v", s.index, day, s.peer.URL(), err)
		c.workerFailures.Add(1)
		s.peer.MarkFailed()
		c.workerLag(s.peer.URL()).Set(int64(1))
		// Drop the session: whatever state the worker holds is now
		// unreachable or untrusted. Reassignment reseeds from the
		// coordinator's merged front state (day-1), which is exactly
		// what the dead worker had merged so far.
		s.peer, s.id = nil, ""
		c.reassigned.Add(1)
	}
	return nil, fmt.Errorf("shard: shard %d day %d failed on every worker: %w", s.index, day, lastErr)
}

// assign opens and seeds a session for s on the healthiest available
// worker. Seeding always uses the generator's front buffers — the
// merged state of day-1 — so a reassigned shard resumes bit-identically
// (proved by TestShardStepperSeedResume at the providers layer).
func (c *Coordinator) assign(ctx context.Context, s *shardSession, day int) error {
	avail := c.peers.Available()
	if len(avail) == 0 {
		// Everyone is in backoff; wait out one jittered base window and
		// let the caller burn a strike.
		if err := c.retry.Wait(ctx, 1); err != nil {
			return err
		}
		return fmt.Errorf("shard: no workers available for shard %d", s.index)
	}
	// Spread shards across the available set (healthiest-first order)
	// instead of piling every shard on the single healthiest worker.
	peer := avail[s.index%len(avail)]

	var req OpenRequest
	req.Job = c.job
	req.Shard.Index = s.index
	req.Shard.Count = len(c.sessions)
	body, err := jsonBody(req)
	if err != nil {
		return err
	}
	var open OpenResponse
	if err := c.doJSON(ctx, "POST", peer.URL()+APIPrefix+"/open", body, &open); err != nil {
		return fmt.Errorf("open shard %d on %s: %w", s.index, peer.URL(), err)
	}
	if open.Lo != s.lo || open.Hi != s.hi {
		// Worker computed different boundaries: its world differs.
		peer.MarkFailed()
		return fmt.Errorf("shard: worker %s computed shard %d as [%d, %d), coordinator has [%d, %d)",
			peer.URL(), s.index, open.Lo, open.Hi, s.lo, s.hi)
	}

	seed := &Frame{Day: day - 1, Lo: s.lo, Hi: s.hi, Started: c.merged > 0}
	for _, p := range c.g.EnabledProviders() {
		vals := c.g.FrontValues(p)
		seed.Fields = append(seed.Fields, Field{Provider: p, Values: vals[s.lo:s.hi]})
	}
	frame, err := seed.Encode()
	if err != nil {
		return err
	}
	if _, err := c.doRaw(ctx, "POST", peer.URL()+APIPrefix+"/seed/"+open.Session, frame); err != nil {
		return fmt.Errorf("seed shard %d on %s: %w", s.index, peer.URL(), err)
	}
	s.peer, s.id = peer, open.Session
	c.logger.Printf("shard %d assigned to %s (session %s, seed day %d)", s.index, peer.URL(), open.Session, day-1)
	return nil
}

// stepOnce asks s's assigned worker for day's frame and validates it.
func (c *Coordinator) stepOnce(ctx context.Context, s *shardSession, day int) (*Frame, error) {
	url := fmt.Sprintf("%s%s/step/%s/%d", s.peer.URL(), APIPrefix, s.id, day)
	body, err := c.doRaw(ctx, "POST", url, nil)
	if err != nil {
		return nil, err
	}
	frame, err := Decode(body)
	if err != nil {
		return nil, err
	}
	if frame.Day != day || frame.Lo != s.lo || frame.Hi != s.hi {
		return nil, fmt.Errorf("shard: frame (day %d, [%d, %d)) does not match request (day %d, [%d, %d))",
			frame.Day, frame.Lo, frame.Hi, day, s.lo, s.hi)
	}
	providersWant := c.g.EnabledProviders()
	if len(frame.Fields) != len(providersWant) {
		return nil, fmt.Errorf("shard: frame has %d fields, want %d", len(frame.Fields), len(providersWant))
	}
	for _, p := range providersWant {
		if frame.Field(p) == nil {
			return nil, fmt.Errorf("shard: frame missing provider %s", p)
		}
	}
	return frame, nil
}

// Close releases every open worker session, best-effort.
func (c *Coordinator) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.sessions {
		if s.peer == nil {
			continue
		}
		c.doRaw(ctx, "DELETE", s.peer.URL()+APIPrefix+"/session/"+s.id, nil) //nolint:errcheck // best-effort cleanup
		s.peer, s.id = nil, ""
	}
}

// --- HTTP plumbing -----------------------------------------------------

// doRaw performs one HTTP exchange, retrying transient failures under
// the coordinator's policy. Protocol-level refusals (4xx, including the
// 409 out-of-order/unseeded conflicts) are final: retrying cannot
// change a worker's verdict about a malformed request.
func (c *Coordinator) doRaw(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var out []byte
	err := c.retry.Do(ctx, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		if resp.StatusCode == http.StatusNoContent {
			out = nil
			return nil
		}
		if err := httpx.CheckStatus(url, resp.StatusCode); err != nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
			return fmt.Errorf("shard: %s %w: %s", method, err, bytes.TrimSpace(msg))
		}
		out, err = httpx.ReadBody(resp, maxRequestBody)
		return err
	})
	return out, err
}

// doJSON is doRaw plus a JSON-decoded response.
func (c *Coordinator) doJSON(ctx context.Context, method, url string, body []byte, v any) error {
	out, err := c.doRaw(ctx, method, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

func jsonBody(v any) ([]byte, error) {
	return json.Marshal(v)
}
