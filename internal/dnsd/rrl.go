package dnsd

import (
	"net"
	"sync"
	"time"
)

// Response-rate limiting (RRL). Authoritative servers answer spoofable
// UDP, so production deployments bound the per-source answer rate and
// convert part of the overflow into truncated answers instead of
// silence — a legitimate client retries over TCP (which is not
// spoofable), while an amplification victim stops receiving traffic.
// This is the BIND/NSD "slip" scheme in miniature, and it matters
// here because §7's manipulation experiments are exactly the kind of
// high-volume single-source query streams RRL is tuned to notice.

// RRLConfig parameterises the limiter.
type RRLConfig struct {
	// RatePerSecond is the sustained per-source answer budget.
	RatePerSecond float64
	// Burst is the bucket depth (instantaneous overshoot allowance).
	Burst float64
	// Slip answers every Slip-th over-limit query with a truncated
	// (TC) response instead of dropping it; 0 drops everything over
	// the limit.
	Slip int
}

// rrl is a per-source token bucket table with lazy refill.
type rrl struct {
	cfg RRLConfig
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	dropped uint64
	slipped uint64
}

type bucket struct {
	tokens   float64
	last     time.Time
	overflow int // consecutive over-limit queries, for slip
}

func newRRL(cfg RRLConfig) *rrl {
	return &rrl{
		cfg:     cfg,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// verdict is the limiter's decision for one answer.
type verdict int

const (
	sendFull verdict = iota
	sendTruncated
	dropAnswer
)

// check spends one token for src and returns the verdict.
func (r *rrl) check(src net.IP) verdict {
	key := src.String()
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[key]
	if !ok {
		b = &bucket{tokens: r.cfg.Burst, last: now}
		r.buckets[key] = b
		// Opportunistic table bound: recycle when the table grows
		// past ~64k sources (flood of spoofed /32s).
		if len(r.buckets) > 1<<16 {
			r.buckets = map[string]*bucket{key: b}
		}
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * r.cfg.RatePerSecond
		if b.tokens > r.cfg.Burst {
			b.tokens = r.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.overflow = 0
		return sendFull
	}
	b.overflow++
	if r.cfg.Slip > 0 && b.overflow%r.cfg.Slip == 0 {
		r.slipped++
		return sendTruncated
	}
	r.dropped++
	return dropAnswer
}

// counters snapshots drop/slip totals.
func (r *rrl) counters() (dropped, slipped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped, r.slipped
}
