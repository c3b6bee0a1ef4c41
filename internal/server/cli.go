package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"locsched/internal/obs"
)

// Main is the daemon's CLI entry point, shared by cmd/locschedd and the
// `locsched serve` subcommand. It parses flags, starts the server, and
// drains gracefully on SIGTERM/SIGINT. Exit codes: 0 clean shutdown,
// 1 runtime failure, 2 usage error.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := DefaultConfig()
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "job queue depth (full queue answers 429)")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "executor goroutines draining the queue")
	fs.IntVar(&cfg.ExpWorkers, "expworkers", cfg.ExpWorkers, "intra-request experiment workers per job")
	fs.IntVar(&cfg.SimWorkers, "simworkers", cfg.SimWorkers, "goroutines per cell's simulation, event loop included (0 and 1 = serial; cache-neutral)")
	fs.IntVar(&cfg.CacheEntries, "cache-entries", cfg.CacheEntries, "result cache entry bound")
	cacheMB := fs.Int64("cache-mb", cfg.CacheBytes>>20, "result cache byte bound in MiB")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request deadline (queue wait + execution)")
	fs.DurationVar(&cfg.DrainTimeout, "drain", cfg.DrainTimeout, "graceful shutdown budget after SIGTERM")
	fs.IntVar(&cfg.Scale, "scale", 0, "default workload scale for requests that set none (0 = built-in default)")
	fs.StringVar(&cfg.StoreDir, "store-dir", "", "persistent result store directory (empty = memory-only)")
	storeMB := fs.Int64("store-mb", 0, "persistent store on-disk bound in MiB (0 = store default)")
	fs.StringVar(&cfg.FleetSelf, "fleet-self", "", "this replica's advertised base URL, enabling fleet mode (empty = single instance)")
	fleetPeers := fs.String("fleet-peers", "", "comma-separated peer replica base URLs (requires -fleet-self)")
	fs.DurationVar(&cfg.PeerTimeout, "peer-timeout", 0, "per-attempt peer fetch timeout (0 = 2s default)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug (includes trace spans), info, warn, error")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	fs.BoolVar(&cfg.Pprof, "pprof", false, "register net/http/pprof handlers under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "locschedd: unexpected arguments %v\n", fs.Args())
		return 2
	}

	cfg.CacheBytes = *cacheMB << 20
	cfg.StoreBytes = *storeMB << 20
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "locschedd:", err)
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(stderr, "locschedd:", err)
		return 2
	}
	cfg.Logger = logger
	if *fleetPeers != "" {
		for _, p := range strings.Split(*fleetPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.FleetPeers = append(cfg.FleetPeers, p)
			}
		}
	}

	srv, err := New(cfg, nil)
	if err != nil {
		fmt.Fprintln(stderr, "locschedd:", err)
		return 2
	}
	if cfg.StoreDir != "" {
		if srv.storeDegraded() {
			fmt.Fprintf(stderr, "locschedd: store %s unusable, serving memory-only (degraded)\n", cfg.StoreDir)
		} else {
			fmt.Fprintf(stdout, "locschedd: persistent store %s (%d entries recovered)\n",
				cfg.StoreDir, srv.store.Len())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "locschedd: serving on %s (queue %d, workers %d, cache %d entries / %d MiB)\n",
		cfg.Addr, cfg.QueueDepth, cfg.Workers, cfg.CacheEntries, cfg.CacheBytes>>20)
	if cfg.FleetSelf != "" {
		fmt.Fprintf(stdout, "locschedd: fleet mode as %s with %d peers\n", cfg.FleetSelf, len(cfg.FleetPeers))
	}

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. address in use).
		fmt.Fprintln(stderr, "locschedd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "locschedd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "locschedd: drain:", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "locschedd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "locschedd: stopped")
	return 0
}
