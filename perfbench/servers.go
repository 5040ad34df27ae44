package main

import (
	"io"
	"log"
	"net"
	"net/http"

	"repro/internal/serve"
)

// listener is one loopback HTTP server.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server, drops its connections, and waits for Serve
// to return.
func (l *listener) close() {
	l.srv.Close() //nolint:errcheck // Close only reports listener close errors
	<-l.done
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// serveChained serves mux the way the daemons do: with /metrics, behind
// the production middleware chain (Metrics.Instrument, AccessLog to a
// discarding logger, so logging still costs what it costs, Limit(1024),
// Recover), on a loopback listener. The benchmark adds a span named
// inner inside the chain (see spanHandler for amb and after) and one
// named serve.chain outside it; their difference is the middleware.
func serveChained(e *env, mux *http.ServeMux, metrics *serve.Metrics, inner string, amb *ambient, after func(*http.Request)) (*listener, error) {
	mux.Handle("GET /metrics", metrics.Handler())
	e.addRegistry(metrics)
	logger := log.New(io.Discard, "", log.LstdFlags)
	chain := serve.Chain(spanHandler(e.tr, inner, mux, amb, after),
		metrics.Instrument(serve.RouteLabel),
		serve.AccessLog(logger),
		serve.Limit(1024, metrics),
		serve.Recover(logger, metrics),
	)
	return listen(spanHandler(e.tr, "serve.chain", chain, nil, nil))
}
