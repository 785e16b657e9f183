package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/obs"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/viewc"
)

// runServe implements `abivm serve`: it drives the demo pub/sub workload
// (the chaos harness's stations/sales stream with the east/west
// subscriptions) at a fixed step interval and exposes the observability
// endpoint over it:
//
//	/metrics          broker/maintainer/fault metrics (text; ?format=json)
//	/healthz          per-subscription health, HTTP 503 while any is degraded
//	/traces           recent step/sub/notify spans, newest first
//	/debug/pprof/...  net/http/pprof, only with -pprof
//
//	abivm serve -addr 127.0.0.1:8080 -seed 1 -interval 50ms -faults
//	abivm serve -shared -faults
//	abivm serve -shared -catalog examples/views.sql
//	abivm serve -data-dir /var/lib/abivm -faults
//	abivm serve -catalog examples/views.sql
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	seed := fs.Int64("seed", 1, "workload and fault seed")
	interval := fs.Duration("interval", 50*time.Millisecond, "broker step interval")
	steps := fs.Int("steps", 0, "stop after this many steps (0 = run until interrupted)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	faults := fs.Bool("faults", false, "run the workload under seeded fault injection")
	tracebuf := fs.Int("tracebuf", obs.DefaultTraceCapacity, "span ring-buffer capacity")
	dataDir := fs.String("data-dir", "", "persist each subscription's WAL and checkpoints under this directory (empty = in-memory durability)")
	catalog := fs.String("catalog", "", "serve this views.sql catalog: compile every view and subscribe it instead of the built-in per-region aggregates")
	shared := fs.Bool("shared", false, "run the subscriptions on the shared delta-dataflow runtime: one hash-consed operator graph instead of per-view maintainers (in-memory durability only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *interval <= 0:
		return fmt.Errorf("serve: -interval %s: want a positive step interval", *interval)
	case *steps < 0:
		return fmt.Errorf("serve: -steps %d: want a step count, or 0 to run until interrupted", *steps)
	case *tracebuf < 1:
		return fmt.Errorf("serve: -tracebuf %d: want a capacity of at least 1 span", *tracebuf)
	case *shared && *dataDir != "":
		return fmt.Errorf("serve: -shared has no disk durability yet; drop -data-dir")
	}
	cfg := pubsub.RuntimeConfig{Spec: pubsub.DefaultWorkloadSpec(), Shared: *shared}
	if *dataDir != "" {
		cfg.Opener = durable.DirOpener(*dataDir)
	}
	if *faults {
		cfg.Injector = fault.NewSeeded(*seed, fault.DefaultRates())
	}
	if *catalog != "" {
		cfg.Subscribe = subscribeCatalog(*catalog, *seed, *shared)
	}
	w, err := pubsub.NewDemoWorkload(*seed, cfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(*tracebuf)
	w.Broker.SetObs(reg, tr)

	mux := obs.NewMux(obs.Options{
		Registry: reg,
		Tracer:   tr,
		Health:   brokerHealth(w.Broker),
		Pprof:    *pprofOn,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("abivm serve: http://%s (seed=%d interval=%s faults=%v)\n", ln.Addr(), *seed, *interval, *faults)

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	var stepErr error
loop:
	for n := 0; *steps == 0 || n < *steps; n++ {
		select {
		case <-ctx.Done():
			break loop
		case err := <-serveErr:
			return fmt.Errorf("serve: http server: %w", err)
		case <-ticker.C:
			if _, err := w.Step(); err != nil {
				stepErr = fmt.Errorf("serve: workload step: %w", err)
				break loop
			}
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		if stepErr == nil {
			stepErr = fmt.Errorf("serve: shutdown: %w", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && stepErr == nil {
		stepErr = fmt.Errorf("serve: http server: %w", err)
	}
	return stepErr
}

// subscribeCatalog returns the subscribe step that serves a views.sql
// catalog instead of the built-in per-region aggregates: the catalog is
// compiled against the demo database (delta plans, sandboxed cost
// calibration, QoS from each statement's QOS clause) and every compiled
// view is subscribed as it was compiled. The event stream is the
// same seeded stations/sales stream the built-in demo uses, so any
// catalog view over those tables sees live deltas.
func subscribeCatalog(path string, seed int64, shared bool) func(*storage.DB, *pubsub.Broker) error {
	return func(db *storage.DB, b *pubsub.Broker) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		views, err := viewc.CompileCatalog(db, string(src), viewc.Options{Seed: seed, Condition: pubsub.Every(5), Dataflow: shared})
		if err != nil {
			return err
		}
		fmt.Printf("abivm serve: compiled %d views from %s\n", len(views), path)
		for _, cv := range views {
			if err := b.Subscribe(cv.Subscription()); err != nil {
				return err
			}
		}
		return nil
	}
}

// brokerHealth aggregates per-subscription broker health into the
// /healthz probe: healthy iff no subscription is degraded.
func brokerHealth(b *pubsub.Broker) obs.HealthFunc {
	return func() (any, bool) {
		type subHealth struct {
			Name string `json:"name"`
			pubsub.Health
		}
		healthy := true
		subs := []subHealth{}
		for _, name := range b.Subscriptions() {
			h, err := b.Health(name)
			if err != nil {
				continue
			}
			if h.Degraded {
				healthy = false
			}
			subs = append(subs, subHealth{Name: name, Health: h})
		}
		return map[string]any{"subscriptions": subs}, healthy
	}
}
