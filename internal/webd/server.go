// Package webd serves the simulated web endpoints over a real TLS
// listener and probes them back — the live counterpart of the paper's
// zgrab TLS scans and nghttp2 HTTP/2 fetches (§8.2, §8.3).
//
// One listener impersonates every simulated domain: the TLS layer
// mints a leaf certificate per SNI name on the fly (signed by an
// in-memory CA the prober trusts), negotiates "h2" only for domains
// whose endpoint is HTTP/2-capable, fails the handshake outright for
// TLS-less domains, and the HTTP layer replays each domain's HSTS
// header and redirect chain. The Prober implements the paper's probe
// method — handshake, follow up to 10 redirects, classify the landing
// page — over the loopback network.
package webd

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/simnet"
)

// Server terminates TLS for every simulated domain on one address.
type Server struct {
	prober simnet.WebProber
	ca     *authority
	http   *http.Server
	ln     net.Listener

	mu    sync.Mutex
	leafs map[string]*tls.Certificate
}

// Listen starts a TLS server for the prober's domains on addr
// (e.g. "127.0.0.1:0").
func Listen(prober simnet.WebProber, addr string) (*Server, error) {
	ca, err := newAuthority()
	if err != nil {
		return nil, err
	}
	s := &Server{
		prober: prober,
		ca:     ca,
		leafs:  make(map[string]*tls.Certificate),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handle)
	mux.HandleFunc("/hop/", s.handle)
	s.http = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		TLSConfig: &tls.Config{
			GetConfigForClient: s.configFor,
		},
		// Handshake refusals for TLS-less domains are expected
		// behaviour, not noise worth logging.
		ErrorLog: log.New(io.Discard, "", 0),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	go s.http.ServeTLS(ln, "", "") //nolint:errcheck // terminates on Close
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// CertPool returns a pool trusting the server's in-memory CA — what a
// Prober needs to verify the minted certificates.
func (s *Server) CertPool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(s.ca.cert)
	return pool
}

// Close stops the listener. It closes the listener itself as well: a
// Close that runs before the serving goroutine has registered the
// listener with http.Server would otherwise leave it accepting until
// that goroutine starts.
func (s *Server) Close() error {
	err := s.http.Close()
	s.ln.Close() //nolint:errcheck // already closed when http.Server tracked it
	return err
}

// configFor implements per-domain TLS behaviour: no certificate for
// unreachable or TLS-less domains (the handshake fails, as a closed
// :443 would), and "h2" in ALPN only for HTTP/2-capable endpoints.
func (s *Server) configFor(hello *tls.ClientHelloInfo) (*tls.Config, error) {
	name := strings.ToLower(hello.ServerName)
	if name == "" {
		return nil, fmt.Errorf("webd: SNI required")
	}
	res := s.prober.Probe(name)
	if !res.Reachable || !res.TLS {
		return nil, fmt.Errorf("webd: %s does not speak TLS", name)
	}
	leaf, err := s.leafFor(name)
	if err != nil {
		return nil, err
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{*leaf},
		NextProtos:   []string{"http/1.1"},
	}
	if res.HTTP2 {
		cfg.NextProtos = []string{"h2", "http/1.1"}
	}
	return cfg, nil
}

// leafFor returns (minting if needed) the certificate for name.
func (s *Server) leafFor(name string) (*tls.Certificate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if leaf, ok := s.leafs[name]; ok {
		return leaf, nil
	}
	leaf, err := s.ca.issue(name)
	if err != nil {
		return nil, err
	}
	s.leafs[name] = leaf
	return leaf, nil
}

// handle replays the domain's redirect chain and final landing page.
// "/" starts the chain; "/hop/N" is the N-th redirect target.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	res := s.prober.Probe(strings.ToLower(host))
	if !res.Reachable {
		http.Error(w, "no such site", http.StatusServiceUnavailable)
		return
	}
	if res.HSTSHeader != "" {
		w.Header().Set("Strict-Transport-Security", res.HSTSHeader)
	} else if res.HSTSMaxAge > 0 {
		w.Header().Set("Strict-Transport-Security", "max-age="+strconv.Itoa(res.HSTSMaxAge))
	}
	hop := 0
	if strings.HasPrefix(r.URL.Path, "/hop/") {
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/hop/"))
		if err != nil || n < 1 {
			http.NotFound(w, r)
			return
		}
		hop = n
	}
	if hop < res.Redirects {
		w.Header().Set("Location", fmt.Sprintf("/hop/%d", hop+1))
		w.WriteHeader(http.StatusFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><body>landing page of %s via %s</body></html>\n", host, r.Proto)
}

// authority is the in-memory issuing CA.
type authority struct {
	cert *x509.Certificate
	key  *ecdsa.PrivateKey
}

func newAuthority() (*authority, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "webd reproduction CA"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &authority{cert: cert, key: key}, nil
}

// issue mints a leaf certificate for one DNS name.
func (a *authority) issue(name string) (*tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return nil, err
	}
	tpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: name},
		DNSNames:     []string{name},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, a.cert, &key.PublicKey, a.key)
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &tls.Certificate{
		Certificate: [][]byte{der, a.cert.Raw},
		PrivateKey:  key,
		Leaf:        leaf,
	}, nil
}
