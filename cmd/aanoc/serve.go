package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"aanoc/internal/scenario"
	"aanoc/internal/serve"
	"aanoc/internal/store"
)

const serveUsage = `aanoc serve exposes the simulator as a sweep service: a small versioned
HTTP/JSON API over the typed facade, backed by the content-addressed
result store so a grid point any client ever ran is never simulated
twice.

  aanoc serve -addr :8080 -store /var/cache/aanoc

  # start a sweep
  curl -s -X POST localhost:8080/v1/sweep -d '{
    "points":[{"design":"gss+sagm","model":"bluray","cycles":200000}]
  }'
  # → {"id":"run-1","total":1}

  # stream progress (NDJSON; the final line carries fingerprints)
  curl -sN localhost:8080/v1/runs/run-1

  # fetch the stored observability report for a fingerprint
  curl -s localhost:8080/v1/results/<fingerprint>

  # counters (requests, sweeps, cache/store hits, store occupancy)
  curl -s localhost:8080/v1/statsz

SIGINT/SIGTERM shut the server down gracefully: active runs are
cancelled (in-flight simulations abandon within one kernel epoch),
streams drain their final line, and listeners close.
`

func serveCmd(ctx context.Context, args []string, _, stderr io.Writer) error {
	// Without -store the server still sweeps; nothing persists.
	f := newFlags("serve", serveUsage, stderr, scenario.Run{}, "store", "store-max-bytes")
	var (
		addr     = f.String("addr", "localhost:8080", "listen address")
		parallel = f.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
		timeout  = f.Duration("timeout", 0, "per-sweep wall-clock bound (0 = none)")
		points   = f.Int("max-points", 0, "largest accepted grid (0 = the 4096 default)")
	)
	if err := f.parse(args); err != nil {
		return err
	}

	opts := serve.Options{
		Workers:    *parallel,
		RunTimeout: *timeout,
		MaxPoints:  *points,
	}
	st, err := f.openStore()
	if err != nil {
		return err
	}
	if st != nil {
		opts.Store = st
		fmt.Fprintf(stderr, "aanoc serve: store %s (namespace %s)\n", f.store, store.Version())
	}

	api := serve.New(opts)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "aanoc serve: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "aanoc serve: shutting down")
	api.Close() // cancel active runs so their streams end promptly
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
