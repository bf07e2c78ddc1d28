// ftmc-serve is the FT-S verdict server: the repository's analysis
// engine behind an HTTP/JSON API, fronted by the internal/serve
// pipeline — canonical-hash verdict cache and bounded direct admission
// of cache misses, with identical in-flight misses sharing one analysis
// and misses beyond -queue shed with 503. Analyses run at most
// FTMC_WORKERS (default: the CPU count) at a time.
//
// Usage:
//
//	ftmc-serve [-addr :8080] [-cache 65536] [-queue 1024]
//
// Endpoints:
//
//	POST /v1/verdict    — analyze one task set (see internal/serve)
//	GET  /healthz       — liveness
//	GET  /metrics       — expvar snapshot, registry published as "ftmc"
//	GET  /debug/vars    — alias of /metrics
//	GET  /metrics/prom  — Prometheus text exposition of the same registry
//
// The process runs a metrics registry unconditionally (serving is the
// one workload where observability outweighs the nanoseconds) and
// prints the bound address on stdout once listening. SIGINT/SIGTERM
// shut down gracefully: stop accepting, drain in-flight and admitted
// requests, then exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cache := flag.Int("cache", serve.DefaultCacheEntries, "most verdicts the cache holds (least recently used evicted beyond it)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admitted cache misses, waiting plus running (beyond it requests shed with 503)")
	flag.Parse()

	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	reg.Publish("ftmc")

	pipe := serve.NewPipeline(serve.Options{CacheEntries: *cache, QueueDepth: *queue})
	srv := serve.NewServer(pipe, serve.ServerOptions{})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-serve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv}
	fmt.Printf("ftmc-serve listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("ftmc-serve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-serve: shutdown: %v\n", err)
		}
		pipe.Close()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ftmc-serve: %v\n", err)
			os.Exit(1)
		}
	}
}
