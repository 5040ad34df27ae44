// Command fleet demonstrates the self-healing archive fleet as real
// separate processes: a seed node simulates the paper's dataset once
// and serves it over the versioned archive wire API; the program then
// re-executes itself twice as mirror nodes (the cmd/mirrord shape:
// bootstrap from a peer, serve the local archive, run sync and verify
// loops) pointed at the seed and at each other. Once the fleet has
// converged the seed is killed and a snapshot on one mirror's disk is
// corrupted behind its back — the survivors fail over, detect and heal
// the corruption from each other, and still render table5
// byte-identically to the original, with the simulation engine never
// running again.
//
// Run it with `go run ./examples/fleet`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	toplists "repro"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	node := flag.String("node", "", "internal: run as a mirror node with this name")
	dir := flag.String("dir", "", "internal: mirror archive directory")
	addr := flag.String("addr", "", "internal: mirror listen address")
	peers := flag.String("peers", "", "internal: comma-separated peer URLs")
	flag.Parse()
	if *node != "" {
		runMirrorNode(*node, *dir, *addr, *peers)
		return
	}
	runFleet()
}

// runMirrorNode is the child-process role: a miniature cmd/mirrord.
// It bootstraps its archive from the first reachable peer, serves it
// over the wire API alongside /metrics, and replicates until killed.
func runMirrorNode(name, dir, addr, peerCSV string) {
	logger := log.New(os.Stderr, "["+name+"] ", log.Ltime)
	ctx := context.Background()
	peers, err := fleet.NewPeerSet(strings.Split(peerCSV, ","),
		fleet.WithPeerBackoff(200*time.Millisecond, 2*time.Second))
	if err != nil {
		logger.Fatal(err)
	}
	var store *toplists.DiskStore
	for {
		store, err = fleet.Bootstrap(ctx, dir, peers)
		if err == nil {
			break
		}
		logger.Printf("bootstrap: %v (retrying)", err)
		time.Sleep(200 * time.Millisecond)
	}
	metrics := serve.NewMetrics()
	mirror := fleet.NewMirror(store, peers,
		fleet.WithMirrorLogger(logger),
		fleet.WithMirrorMetrics(metrics))

	mux := http.NewServeMux()
	mux.Handle("/", toplists.ArchiveHandler(store))
	mux.Handle("GET /metrics", metrics.Handler())
	go func() { logger.Fatal(http.ListenAndServe(addr, mux)) }()
	for _, loop := range mirror.Loops(200*time.Millisecond, 500*time.Millisecond) {
		go loop(ctx)
	}
	logger.Printf("mirror up on %s, replicating from %s", addr, peerCSV)
	select {} // until the parent kills us
}

func runFleet() {
	ctx := context.Background()
	base, err := os.MkdirTemp("", "fleet-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	scale := toplists.TestScale()
	scale.Population.Days = 8

	// Node A: simulate once, persist, and render the reference table.
	fmt.Println("node A: simulating the dataset and serving the seed archive...")
	dirA := filepath.Join(base, "a")
	labA := toplists.NewLab(toplists.WithScale(scale), toplists.WithArchiveDir(dirA))
	ref, err := labA.Run(ctx, "table5")
	if err != nil {
		log.Fatal(err)
	}
	srcA, err := toplists.OpenArchive(dirA)
	if err != nil {
		log.Fatal(err)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srvA := &http.Server{Handler: toplists.ArchiveHandler(srcA)}
	go srvA.Serve(lnA)
	urlA := "http://" + lnA.Addr().String()

	// Nodes B and C: separate OS processes (this binary re-executed),
	// each peered with the seed and with the other mirror.
	addrB, addrC := freeAddr(), freeAddr()
	urlB, urlC := "http://"+addrB, "http://"+addrC
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	spawn := func(name, dir, addr, peers string) *exec.Cmd {
		cmd := exec.Command(self, "-node", name, "-dir", dir, "-addr", addr, "-peers", peers)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		return cmd
	}
	fmt.Println("spawning mirror processes B and C...")
	procB := spawn("B", filepath.Join(base, "b"), addrB, urlA+","+urlC)
	defer procB.Process.Kill()
	procC := spawn("C", filepath.Join(base, "c"), addrC, urlA+","+urlB)
	defer procC.Process.Kill()

	want := waitManifestContent(urlA)
	waitFor("fleet convergence", func() bool {
		return manifestContent(urlB) == want && manifestContent(urlC) == want
	})
	fmt.Println("fleet converged: all three manifests fingerprint-identical ✔")

	// Chaos: kill the seed for good and corrupt a snapshot on B's disk.
	fmt.Println("killing node A and corrupting a snapshot on node B's disk...")
	srvA.Close()
	rotten := filepath.Join(base, "b", toplists.Alexa, srcA.First().String()+".csv.gz")
	if err := os.WriteFile(rotten, []byte("rotten bytes"), 0o644); err != nil {
		log.Fatal(err)
	}
	waitFor("node B to heal the corruption", func() bool {
		return metricValue(urlB, "fleet_corrupt_healed_total") >= 1
	})
	fmt.Println("node B's verify sweep caught the corruption and healed it from node C ✔")

	// Both survivors still serve the full dataset: rerun table5 over
	// the wire from each and compare byte for byte.
	for _, node := range []struct{ name, url string }{{"B", urlB}, {"C", urlC}} {
		src, err := toplists.OpenRemote(ctx, node.url)
		if err != nil {
			log.Fatal(err)
		}
		res, err := toplists.NewLab(toplists.WithScale(scale), toplists.WithSource(src)).Run(ctx, "table5")
		if err != nil {
			log.Fatal(err)
		}
		if res.Render() != ref.Render() {
			log.Fatalf("node %s renders a different table5", node.name)
		}
	}
	fmt.Println("both survivors render table5 byte-identically to the original ✔")
	fmt.Print("\n", ref.Render())
}

// freeAddr grabs an unused loopback port for a child process to bind.
func freeAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}

// manifestContent returns the archive's content fingerprint ("" while
// the node is down or still bootstrapping).
func manifestContent(baseURL string) string {
	resp, err := http.Get(baseURL + "/archive/v1/manifest")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var m struct {
		Content string `json:"content"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&m) != nil {
		return ""
	}
	return m.Content
}

func waitManifestContent(baseURL string) string {
	var content string
	waitFor("seed manifest", func() bool {
		content = manifestContent(baseURL)
		return content != ""
	})
	return content
}

// metricValue scrapes one scalar series from a node's /metrics page
// (-1 while the node is unreachable).
func metricValue(baseURL, series string) float64 {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return -1
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}
