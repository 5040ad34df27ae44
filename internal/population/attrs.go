package population

import "math"

// anchor is a point on an adoption curve: at popularity quantile q
// (fraction of domains more popular, so q→0 is the head), the
// probability of the attribute is p.
type anchor struct{ q, p float64 }

// curve interpolates adoption probability piecewise-linearly in
// log10(q) between anchors. Anchors must be ordered by ascending q.
type curve struct {
	anchors []anchor
	lq      []float64 // log10 of each anchor's q, taken once
}

func newCurve(anchors []anchor) curve {
	c := curve{anchors: anchors, lq: make([]float64, len(anchors))}
	for i, a := range anchors {
		c.lq[i] = math.Log10(a.q)
	}
	return c
}

// eval returns the adoption probability at quantile q (clamped to the
// anchor range); lq is log10(q), which the caller takes once for all
// curves.
func (c curve) eval(q, lq float64) float64 {
	a := c.anchors
	if len(a) == 0 {
		return 0
	}
	if q <= a[0].q {
		return a[0].p
	}
	last := a[len(a)-1]
	if q >= last.q {
		return last.p
	}
	for i := 1; i < len(a); i++ {
		if q <= a[i].q {
			lo, hi := a[i-1], a[i]
			t := (lq - c.lq[i-1]) / (c.lq[i] - c.lq[i-1])
			return lo.p + t*(hi.p-lo.p)
		}
	}
	return last.p
}

// Adoption curves, calibrated so that the population-level shares and
// the head/tail contrast land near the paper's Table 5 values. The
// measured per-list shares then emerge from which domains each list
// samples.
var (
	curveIPv6 = newCurve([]anchor{{1e-5, 0.25}, {1e-4, 0.21}, {1e-3, 0.17}, {1e-2, 0.12}, {1e-1, 0.07}, {1, 0.035}})
	curveCAA  = newCurve([]anchor{{1e-5, 0.30}, {1e-4, 0.17}, {1e-3, 0.06}, {1e-2, 0.015}, {1e-1, 0.003}, {1, 0.0008}})
	curveTLS  = newCurve([]anchor{{1e-5, 0.93}, {1e-4, 0.89}, {1e-3, 0.85}, {1e-2, 0.76}, {1e-1, 0.56}, {1, 0.33}})
	curveHSTS = newCurve([]anchor{{1e-5, 0.28}, {1e-3, 0.18}, {1e-2, 0.13}, {1e-1, 0.09}, {1, 0.07}})
	curveH2   = newCurve([]anchor{{1e-5, 0.52}, {1e-4, 0.44}, {1e-3, 0.34}, {1e-2, 0.25}, {1e-1, 0.14}, {1, 0.06}})
	curveCDN  = newCurve([]anchor{{1e-5, 0.38}, {1e-4, 0.30}, {1e-3, 0.16}, {1e-2, 0.06}, {1e-1, 0.025}, {1, 0.011}})
)

// attrScale multiplies the curve probability per category (capped at
// 0.97). Junk/ghost/IoT domains have no web infrastructure; trackers,
// mobile backends, and embedded-content hosts run on progressive
// CDN-hosted stacks.
type attrScale struct{ ipv6, caa, tls, hsts, h2, cdn float64 }

var categoryAttr = [numCategories]attrScale{
	CatWeb:      {1, 1, 1, 1, 1, 1},
	CatLeisure:  {1, 1, 1, 1, 1, 1},
	CatWork:     {1, 1.2, 1.05, 1.2, 0.9, 0.8},
	CatMedia:    {1.1, 1, 1.05, 1, 1.3, 1.8},
	CatShopping: {0.9, 1.1, 1.1, 1.2, 1, 1},
	CatTracker:  {1.3, 0.6, 1.1, 1.1, 1.7, 3.5},
	CatMobile:   {1.2, 0.5, 1.05, 0.9, 1.5, 2.5},
	CatCDNAsset: {1.4, 0.5, 1.05, 0.8, 1.9, 4.5},
	CatIoT:      {0.6, 0.1, 0.25, 0.2, 0.05, 0.05},
	CatJunk:     {0, 0, 0, 0, 0, 0},
	CatGhost:    {0, 0, 0, 0, 0, 0},
}

func scaled(p, factor float64) float64 {
	v := p * factor
	if v > 0.97 {
		v = 0.97
	}
	return v
}

// cdnHeadWeights and cdnTailWeights give the CDN market shares at the
// popularity head and tail; the tail is dominated by Google
// (private Google-hosted sites, the paper's 71 % population share) and
// WordPress, the head by classic commercial CDNs (Fig. 7b). Indexed by
// CDN ID 1..12; index 0 unused.
var (
	cdnHeadWeights = [...]float64{0, 30, 13, 11, 7, 10, 3, 5, 3, 2, 3, 4, 9}
	cdnTailWeights = [...]float64{0, 3, 66, 2, 1, 5, 16, 1, 0.5, 0.5, 1, 1, 3}
)

// cdnChoiceWeights interpolates the market share vector at log
// quantile t.
func cdnChoiceWeights(t float64) (out [len(cdnHeadWeights)]float64) {
	// Blend in log space between head and tail.
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	for i := range out {
		out[i] = (1-t)*cdnHeadWeights[i] + t*cdnTailWeights[i]
	}
	return out
}

func clampQ(q float64) float64 {
	if q < 1e-6 {
		return 1e-6
	}
	if q > 1 {
		return 1
	}
	return q
}

// Hosting-AS role shares by log quantile t: the tail lives on mass
// hosting (GoDaddy-like, the paper's 26 % population share), the head
// on cloud and diverse small ASes (Fig. 7d).
func hostingRoleWeights(t float64) (mass, cloud, small float64) {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	mass = 0.03 + t*(0.45-0.03)
	cloud = 0.35 - t*(0.35-0.13)
	small = 1 - mass - cloud
	return
}

// TTL buckets by log quantile t: popular (often CDN-fronted) domains
// use short TTLs; the tail uses long registrar defaults.
var (
	ttlBuckets = [...]uint32{30, 60, 300, 900, 3600, 86400}
	ttlHead    = [len(ttlBuckets)]float64{25, 25, 30, 12, 6, 2}
	ttlTail    = [len(ttlBuckets)]float64{1, 2, 10, 15, 40, 32}
)

func ttlWeights(t float64) (out [len(ttlBuckets)]float64) {
	for i := range out {
		out[i] = (1-t)*ttlHead[i] + t*ttlTail[i]
	}
	return out
}
