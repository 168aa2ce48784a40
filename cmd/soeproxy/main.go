// Command soeproxy is the cluster gateway for a fleet of soeserve
// nodes: it routes submissions by content-addressed fingerprint,
// retries every tier on ring successors when a node or its circuit
// breaker fails, and sheds load with deterministic 429/503 +
// Retry-After.
//
//	soeproxy -addr :8090 -nodes http://n1:8080,http://n2:8080,http://n3:8080
//
//	curl -s localhost:8090/v1/run -d '{"pair":"gcc:eon","f":0.5,"scale":"tiny"}'
//	curl -s localhost:8090/status
//	soeproxy -status -addr localhost:8090
//
// See DESIGN.md §13 for the routing and failure semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"soemt/internal/cli"
	"soemt/internal/cluster"
	"soemt/internal/obs"
	"soemt/internal/proxy"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address (or, with -status, the gateway to query)")
		nodes         = flag.String("nodes", "", "comma-separated soeserve base URLs (required unless -status)")
		status        = flag.Bool("status", false, "print the gateway's /status JSON and exit")
		maxBody       = flag.Int64("max-body", 1<<20, "max request body bytes (413 beyond)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "node /healthz probe interval")
		reqTimeout    = flag.Duration("node-timeout", 15*time.Second, "per-node request timeout")
		timeouts      = cli.DefaultHTTPTimeouts()
	)
	timeouts.Flags(flag.CommandLine)
	flag.Parse()

	if *status {
		if err := printStatus(*addr); err != nil {
			cli.Fatal("soeproxy", err)
		}
		return
	}
	nodeList := cli.SplitList(*nodes)
	if len(nodeList) == 0 {
		cli.Fatal("soeproxy", errors.New("-nodes is required (comma-separated soeserve URLs)"))
	}

	reg := obs.NewRegistry() // shared: cluster.* and proxy.* side by side on /metrics
	cl, err := cluster.New(cluster.Config{
		Nodes:          nodeList,
		ProbeInterval:  *probeInterval,
		RequestTimeout: *reqTimeout,
		Registry:       reg,
		Logf:           log.Printf,
	})
	if err != nil {
		cli.Fatal("soeproxy", err)
	}
	px, err := proxy.New(proxy.Config{
		Cluster:      cl,
		MaxBodyBytes: *maxBody,
		Registry:     reg,
		Logf:         log.Printf,
	})
	if err != nil {
		cli.Fatal("soeproxy", err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	cl.StartProbes(ctx)
	defer cl.StopProbes()

	hs := timeouts.Server(*addr, px.Handler())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-ctx.Done()
		log.Printf("soeproxy: signal received; shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()

	log.Printf("soeproxy: listening on %s, routing over %d nodes (%s)",
		*addr, len(nodeList), strings.Join(nodeList, ", "))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fatal("soeproxy", err)
	}
	<-stopped
}

// printStatus fetches and prints the /status JSON of a running
// gateway; addr accepts ":8090", "host:8090" or a full URL.
func printStatus(addr string) error {
	url := addr
	if strings.HasPrefix(url, ":") {
		url = "127.0.0.1" + url
	}
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := http.Get(url + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s from %s/status", resp.Status, url)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
