// Command qrserve puts the tiled QR runtime behind an HTTP/JSON front end —
// QR as a service. It exposes one-shot factorization and least-squares
// endpoints and session-oriented streaming TSQR (rows arrive in batches,
// solves are served from the resident triangle, optionally over a sliding
// window), in all four precisions, with fail-fast backpressure (429 +
// Retry-After when the runtime's task backlog or the request bodies in
// flight pass their bounds), same-matrix solve coalescing (solves that
// arrive while an identical matrix is being factored share that
// factorization), and a graceful SIGTERM drain: in-flight requests finish,
// new ones get 503, and the runtime quiesces before the process exits.
// Every connection reads its request under a deadline shorter than the
// default drain timeout, so no stalled client outlasts a drain.
//
//	qrserve -addr :8787
//	curl -s localhost:8787/healthz
//	curl -s localhost:8787/statsz | jq .
//	curl -s -X POST localhost:8787/v1/factor -d '{"matrix":{"rows":2,"cols":2,"data":[1,2,3,4]}}'
//
// See the README's "QR as a service" section for the endpoint reference;
// `go run ./bench -workload serve_mix` drives a served load against it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tiledqr"
	"tiledqr/internal/serve"
)

var (
	flagAddr     = flag.String("addr", "127.0.0.1:8787", "listen address (host:port; port 0 picks a free port)")
	flagAddrFile = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts)")
	flagWorkers  = flag.Int("workers", 0, "runtime workers (0 = TILEDQR_WORKERS or GOMAXPROCS)")

	flagQueueDepth = flag.Int("max-queue", 0, "runtime task-backlog bound for 429 backpressure (0 = 512×workers, <0 disables)")

	flagSessionTTL  = flag.Duration("session-ttl", 0, "idle session eviction TTL (0 = default 5m)")
	flagMaxSessions = flag.Int("max-sessions", 0, "session table bound (0 = default 1024)")

	flagDrainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight work on SIGTERM")
	flagDrainGrace   = flag.Duration("drain-grace", 0, "keep answering 503 for this long after the drain completes before closing the listener")
)

// Connection deadlines. readTimeout bounds reading a whole request, headers
// and body: a 64 MiB body (serve's default MaxBodyBytes) needs a client
// that sends about 2.7 MB/s, and it ends before the default -drain-timeout
// of 30 s, so a stalled body never outlasts a drain. idleTimeout closes
// kept-alive connections that send nothing.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 25 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	flag.Parse()
	log.SetPrefix("qrserve: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rt := tiledqr.NewRuntime(*flagWorkers)
	defer rt.Close()
	srv := serve.New(serve.Config{
		Runtime:       rt,
		MaxQueueDepth: *flagQueueDepth,
		SessionTTL:    *flagSessionTTL,
		MaxSessions:   *flagMaxSessions,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		return err
	}
	if *flagAddrFile != "" {
		if err := os.WriteFile(*flagAddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s (%d workers)", ln.Addr(), rt.Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case got := <-sig:
		log.Printf("%v: draining — in-flight requests finish, new ones get 503", got)
	}

	// Drain sequence: stop admitting (503), let in-flight requests finish,
	// quiesce the runtime, optionally keep 503ing through the grace window
	// (so load balancers observe the drain), then close the listener.
	srv.StartDrain()
	deadline := time.Now().Add(*flagDrainTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := srv.AwaitIdle(ctx); err != nil {
		log.Printf("drain: in-flight requests still running at deadline: %v", err)
	}
	if err := rt.Drain(ctx); err != nil {
		log.Printf("drain: runtime still busy at deadline: %v", err)
	}
	if *flagDrainGrace > 0 {
		time.Sleep(*flagDrainGrace)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
