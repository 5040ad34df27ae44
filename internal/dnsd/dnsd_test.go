package dnsd

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// testZone builds a small authoritative zone exercising every answer
// shape the measurement campaigns consume.
func testZone() *simnet.StaticZone {
	z := simnet.NewStaticZone()
	z.Add("plain.example.com", simnet.Response{
		RCode: simnet.RCodeNoError, A: 0x0A000001, AAAA: true, CAA: true, TTL: 300,
	})
	z.Add("v4only.example.com", simnet.Response{
		RCode: simnet.RCodeNoError, A: 0x0A000002, TTL: 60,
	})
	z.Add("www.chain.example.com", simnet.Response{
		RCode: simnet.RCodeNoError,
		Chain: []string{"edge.cdn.example.net", "origin.cdn.example.net"},
		A:     0x0A000003, TTL: 120,
	})
	z.Add("broken.example.com", simnet.Response{RCode: simnet.RCodeServFail})
	return z
}

func startServer(t *testing.T, zone simnet.Zone, opts ...Option) *Server {
	t.Helper()
	s, err := Listen(zone, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestUDPQueryShapes(t *testing.T) {
	s := startServer(t, testZone())
	r := NewResolver(s.Addr(), WithSeed(1))
	ctx := context.Background()

	t.Run("A+AAAA+CAA", func(t *testing.T) {
		res, err := r.Resolve(ctx, "plain.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if res.RCode != simnet.RCodeNoError || !res.HasA || !res.AAAA || !res.CAA {
			t.Errorf("res = %+v", res)
		}
		if res.TTL != 300 {
			t.Errorf("TTL = %d, want 300", res.TTL)
		}
	})
	t.Run("v4 only", func(t *testing.T) {
		res, err := r.Resolve(ctx, "v4only.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasA || res.AAAA || res.CAA {
			t.Errorf("res = %+v", res)
		}
	})
	t.Run("CNAME chain order", func(t *testing.T) {
		res, err := r.Resolve(ctx, "www.chain.example.com")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"edge.cdn.example.net", "origin.cdn.example.net"}
		if !reflect.DeepEqual(res.Chain, want) {
			t.Errorf("chain = %v, want %v", res.Chain, want)
		}
		if !res.HasA {
			t.Error("terminal A record missing")
		}
	})
	t.Run("NXDOMAIN", func(t *testing.T) {
		res, err := r.Resolve(ctx, "nosuch.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if res.RCode != simnet.RCodeNXDomain || res.HasA {
			t.Errorf("res = %+v", res)
		}
	})
	t.Run("SERVFAIL", func(t *testing.T) {
		res, err := r.Resolve(ctx, "broken.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if res.RCode != simnet.RCodeServFail {
			t.Errorf("rcode = %v", res.RCode)
		}
	})

	if st := s.Stats(); st.UDPQueries == 0 || st.TCPQueries != 0 {
		t.Errorf("stats = %+v, want UDP-only traffic", st)
	}
}

// longChainZone returns a zone whose answer encodes past the UDP
// payload limit, forcing TC + TCP fallback.
func longChainZone() (*simnet.StaticZone, []string) {
	z := simnet.NewStaticZone()
	var chain []string
	for i := 0; i < 12; i++ {
		chain = append(chain, fmt.Sprintf(
			"hop%02d.%s.very-long-intermediate-cdn-tier.example.net",
			i, strings.Repeat("x", 40)))
	}
	z.Add("big.example.com", simnet.Response{
		RCode: simnet.RCodeNoError, Chain: chain, A: 0x0A0000FF, TTL: 30,
	})
	return z, chain
}

func TestTruncationFallsBackToTCP(t *testing.T) {
	zone, chain := longChainZone()
	s := startServer(t, zone)
	r := NewResolver(s.Addr(), WithSeed(2))

	res, err := r.Resolve(context.Background(), "big.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Chain, chain) {
		t.Fatalf("chain mismatch over TCP: got %d hops, want %d", len(res.Chain), len(chain))
	}
	if !res.HasA {
		t.Error("terminal A lost in fallback")
	}
	if got := r.TCPUpgrades(); got == 0 {
		t.Error("resolver never upgraded to TCP")
	}
	st := s.Stats()
	if st.Truncated == 0 || st.TCPQueries == 0 {
		t.Errorf("stats = %+v, want truncation and TCP traffic", st)
	}
}

func TestServerAnswersFORMERRForGarbage(t *testing.T) {
	s := startServer(t, testZone())
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 12 garbage bytes: decodable header region, undecodable rest.
	garbage := []byte{0xAB, 0xCD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.DecodeMessage(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0xABCD || m.RCode != simnet.RCodeFormErr || !m.Response {
		t.Errorf("FORMERR reply = %+v", m)
	}
	if st := s.Stats(); st.Malformed == 0 {
		t.Errorf("stats = %+v, want malformed count", st)
	}
}

func TestResolverIgnoresMismatchedAnswers(t *testing.T) {
	// A hostile/buggy server that answers first with a wrong ID, then
	// with a wrong question, then correctly.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 512)
		n, peer, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := simnet.DecodeMessage(buf[:n])
		if err != nil {
			return
		}
		send := func(m *simnet.Message) {
			b, err := m.Encode()
			if err != nil {
				return
			}
			pc.WriteTo(b, peer) //nolint:errcheck
		}
		// Wrong ID (spoof attempt).
		send(&simnet.Message{ID: q.ID + 1, Response: true, Question: q.Question})
		// Wrong question name.
		send(&simnet.Message{ID: q.ID, Response: true,
			Question: simnet.Question{Name: "other.example.com", Type: q.Question.Type, Class: simnet.ClassIN}})
		// Correct answer.
		good := simnet.BuildAnswer(q.ID, q.Question.Name, q.Question.Type,
			simnet.Response{RCode: simnet.RCodeNoError, A: 0x7F000001, TTL: 5})
		send(good)
	}()

	r := NewResolver(pc.LocalAddr().String(), WithSeed(3))
	m, err := r.Exchange(context.Background(), "victim.example.com", simnet.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Type != simnet.TypeA {
		t.Fatalf("answer = %+v, want the genuine A record", m.Answers)
	}
}

func TestResolverRetriesLostDatagram(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 512)
		// Drop the first query silently; answer the second.
		if _, _, err := pc.ReadFrom(buf); err != nil {
			return
		}
		n, peer, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := simnet.DecodeMessage(buf[:n])
		if err != nil {
			return
		}
		m := simnet.BuildAnswer(q.ID, q.Question.Name, q.Question.Type,
			simnet.Response{RCode: simnet.RCodeNoError, A: 1, TTL: 5})
		b, err := m.Encode()
		if err != nil {
			return
		}
		pc.WriteTo(b, peer) //nolint:errcheck
	}()

	r := NewResolver(pc.LocalAddr().String(),
		WithSeed(4), WithTimeout(200*time.Millisecond), WithUDPTries(2))
	if _, err := r.Exchange(context.Background(), "retry.example.com", simnet.TypeA); err != nil {
		t.Fatalf("retry should have succeeded: %v", err)
	}
}

func TestResolverTimesOutAgainstBlackHole(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close() // never answers

	r := NewResolver(pc.LocalAddr().String(),
		WithSeed(5), WithTimeout(100*time.Millisecond), WithUDPTries(2))
	start := time.Now()
	_, err = r.Exchange(context.Background(), "void.example.com", simnet.TypeA)
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("gave up too slowly: %v", elapsed)
	}
	if !strings.Contains(err.Error(), "2 tries") {
		t.Errorf("err = %v, want try count", err)
	}
}

func TestResolverHonoursContextCancel(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close() // black hole

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := NewResolver(pc.LocalAddr().String(), WithSeed(6), WithTimeout(10*time.Second))
	start := time.Now()
	if _, err := r.Exchange(ctx, "ctx.example.com", simnet.TypeA); err == nil {
		t.Fatal("want context deadline error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("context deadline ignored: took %v", elapsed)
	}
}

func TestTCPConnectionPipelinesQueries(t *testing.T) {
	s := startServer(t, testZone())
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck

	for i, name := range []string{"plain.example.com", "v4only.example.com", "nosuch.example.com"} {
		q := &simnet.Message{
			ID:        uint16(100 + i),
			Recursion: true,
			Question:  simnet.Question{Name: name, Type: simnet.TypeA, Class: simnet.ClassIN},
		}
		wire, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, wire); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(conn)
		if err != nil {
			t.Fatalf("query %d on shared conn: %v", i, err)
		}
		m, err := simnet.DecodeMessage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != q.ID || !strings.EqualFold(m.Question.Name, name) {
			t.Fatalf("answer %d mismatched: %+v", i, m)
		}
	}
	if st := s.Stats(); st.TCPQueries != 3 {
		t.Errorf("TCPQueries = %d, want 3", st.TCPQueries)
	}
}

func TestTCPIdleTimeoutClosesConnection(t *testing.T) {
	s := startServer(t, testZone(), WithIdleTimeout(50*time.Millisecond))
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 2)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection should have been closed by the server")
	}
}

func TestServerCloseIsIdempotentAndStopsService(t *testing.T) {
	s := startServer(t, testZone())
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r := NewResolver(addr, WithSeed(7), WithTimeout(100*time.Millisecond), WithUDPTries(1))
	if _, err := r.Exchange(context.Background(), "plain.example.com", simnet.TypeA); err == nil {
		t.Fatal("closed server still answered")
	}
}

func TestResolveAllMatchesDirectLookups(t *testing.T) {
	zone := simnet.NewStaticZone()
	var names []string
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("host%02d.example.org", i)
		names = append(names, name)
		switch i % 3 {
		case 0:
			zone.Add(name, simnet.Response{RCode: simnet.RCodeNoError, A: uint32(i + 1), AAAA: true, TTL: 10})
		case 1:
			zone.Add(name, simnet.Response{RCode: simnet.RCodeNoError, A: uint32(i + 1), CAA: true, TTL: 10})
			// case 2: left NXDOMAIN
		}
	}
	s := startServer(t, zone)
	r := NewResolver(s.Addr(), WithSeed(8))

	results, err := ResolveAll(context.Background(), r, names, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("results = %d, want %d", len(results), len(names))
	}
	for i, res := range results {
		if res.Name != names[i] {
			t.Fatalf("result %d out of order: %s", i, res.Name)
		}
		want := zone.Lookup(names[i])
		if (res.RCode != want.RCode) || (res.AAAA != want.AAAA) ||
			(want.RCode == simnet.RCodeNoError && res.CAA != want.CAA) {
			t.Errorf("%s: got %+v, want %+v", names[i], res, want)
		}
	}
}

func TestResolveAllPropagatesTransportError(t *testing.T) {
	s := startServer(t, testZone())
	addr := s.Addr()
	s.Close()
	r := NewResolver(addr, WithSeed(9), WithTimeout(50*time.Millisecond), WithUDPTries(1))
	_, err := ResolveAll(context.Background(), r, []string{"a.com", "b.com", "c.com"}, 3)
	if err == nil {
		t.Fatal("want transport error from dead server")
	}
}

func TestConcurrentUDPLoad(t *testing.T) {
	s := startServer(t, testZone())
	r := NewResolver(s.Addr(), WithSeed(10))
	ctx := context.Background()

	const goroutines = 16
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 25; i++ {
				if _, err := r.Exchange(ctx, "plain.example.com", simnet.TypeA); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// A handler counts its query after the answer is written, so the
	// last answers can arrive first; Close waits for every handler.
	s.Close()
	if st := s.Stats(); st.UDPQueries < goroutines*25 {
		t.Errorf("UDPQueries = %d, want >= %d", st.UDPQueries, goroutines*25)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf strings.Builder
	msg := []byte("\x12\x34hello frame")
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("frame = %q, want %q", got, msg)
	}
	// Zero-length and oversized frames are rejected.
	if _, err := readFrame(strings.NewReader("\x00\x00")); err == nil {
		t.Error("zero frame accepted")
	}
	if err := writeFrame(&buf, make([]byte, maxTCPMessage+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}
