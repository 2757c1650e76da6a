package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alice/serve"
)

// runServe implements `alice serve`: the redaction-as-a-service daemon.
//
//	alice serve [-addr :8080] [-data DIR] [-workers N] [-job-timeout 15m] [-keep-done 512]
//
// The daemon persists memoized flow results, cluster
// characterizations, and the job journal in DIR/alice.store; on
// restart it re-runs interrupted jobs and answers repeated requests
// from the store. SIGINT/SIGTERM drain running jobs before exit.
func runServe(args []string) {
	fs := flag.NewFlagSet("alice serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "localhost:8080", "HTTP listen address")
		dataDir    = fs.String("data", "alice-data", "data directory for the persistent store")
		workers    = fs.Int("workers", 0, "job worker-pool width (0 = all CPUs)")
		jobTimeout = fs.Duration("job-timeout", 15*time.Minute, "per-job run budget")
		keepDone   = fs.Int("keep-done", 512, "finished jobs to retain for polling")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		queueDepth = fs.Int("queue-depth", 256, "queued-job admission limit (excess submits get 503)")
		retries    = fs.Int("retries", 2, "attempts per panicking job before quarantine")
	)
	fs.Parse(args)

	srv, err := serve.New(serve.Options{
		DataDir:       *dataDir,
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		KeepDone:      *keepDone,
		MaxQueueDepth: *queueDepth,
		MaxAttempts:   *retries,
	})
	if err != nil {
		fatalf("%v", err)
	}

	// Slow-client hygiene: bound the header read and idle keep-alives so
	// stalled connections can't pin goroutines forever. WriteTimeout
	// stays 0 — GET /v1/jobs/{id}?wait=... long-polls legitimately hold
	// a response open for minutes (the handler clamps its own wait).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("alice serve: shutting down (draining up to %s)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		hs.Shutdown(shutdownCtx)
		if err := srv.Close(shutdownCtx); err != nil {
			log.Printf("alice serve: drain incomplete: %v (queued jobs re-run on next start)", err)
		}
	}()

	log.Printf("alice serve: listening on http://%s (store in %s)", *addr, *dataDir)
	fmt.Fprintf(os.Stderr, "  submit:  curl -s http://%s/v1/jobs -d '{\"bench\":\"gcd\",\"cfg\":1}'\n", *addr)
	fmt.Fprintf(os.Stderr, "  poll:    curl -s http://%s/v1/jobs/job-1?wait=60s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("serve: %v", err)
	}
	<-done
}
