// Command dgs-api serves the ground-station-as-a-service query layer: an
// HTTP JSON API answering pass-prediction, link-budget, and planning
// queries over a versioned world (internal/serve). The world is loaded
// once at startup and then revised live: POST /v2/updates (and the
// optional -watch-tle file watcher) feed TLE refreshes, weather
// revisions, and station membership changes through the incremental
// planner, each landing as a new world epoch with a delta pushed to
// /v2/plan/stream subscribers.
//
// Usage:
//
//	dgs-api -listen 127.0.0.1:8041
//	curl 'http://127.0.0.1:8041/v1/passes?sat=3&hours=6'
//	curl 'http://127.0.0.1:8041/v2/plan'
//	curl -N 'http://127.0.0.1:8041/v2/plan/stream'
//
// The server logs its bound address on startup (so -listen :0 works for
// scripts), sheds overload with 429 + Retry-After, and drains in-flight
// requests — closing plan streams first — on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dgs"
	"dgs/internal/cliutil"
	"dgs/internal/serve"
	"dgs/internal/tle"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8041", "listen address (use :0 for an ephemeral port)")
	world := serve.WorldFlags()
	cache := flag.Int("cache", 4096, "response cache entries (negative disables)")
	inflight := flag.Int("inflight", 0, "max concurrent compute-path requests (0 = 2x workers)")
	watchTLE := flag.String("watch-tle", "", "TLE file to poll; on modification its elements are applied live by catalog number")
	watchInterval := flag.Duration("watch-interval", 10*time.Second, "poll interval for -watch-tle")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on a dedicated address (e.g. localhost:6060), independent of the API listener")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	flag.Parse()
	snapCfg, planHorizon := world()
	cliutil.NonNegativeInt("inflight", *inflight)
	cliutil.PositiveDuration("watch-interval", *watchInterval)
	cliutil.PositiveDuration("drain", *drain)

	if *pprofAddr != "" {
		addr, err := cliutil.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatalf("dgs-api: pprof listener: %v", err)
		}
		log.Printf("dgs-api: pprof on http://%s/debug/pprof/", addr)
	}

	t0 := time.Now()
	snap, err := serve.NewSnapshot(snapCfg)
	if err != nil {
		log.Fatalf("dgs-api: %v", err)
	}
	store := serve.NewStore(snap, serve.StoreConfig{PlanHorizon: planHorizon})
	log.Printf("dgs-api: loaded %d satellites / %d stations in %v (world epoch %d)",
		snap.Sats(), snap.Stations(), time.Since(t0).Round(time.Millisecond), store.Epoch())
	api := serve.NewWithSource(store, serve.Config{
		MaxInFlight:  *inflight,
		CacheEntries: *cache,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dgs-api: %v", err)
	}
	srv := &http.Server{Handler: api.Handler()}
	log.Printf("dgs-api: serving on %s (epoch %s, span %v, slot %v)",
		ln.Addr(), dgs.Start.Format(time.RFC3339), snap.Config().MaxSpan, snap.Config().Slot)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watchTLE != "" {
		log.Printf("dgs-api: watching %s every %v", *watchTLE, *watchInterval)
		go watchTLEs(ctx, store, *watchTLE, *watchInterval)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		log.Fatalf("dgs-api: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Print("dgs-api: draining in-flight requests")
	// Close the store first: plan-stream handlers exit when their channel
	// closes, so Shutdown's drain isn't held open by long-lived streams.
	store.Close()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatalf("dgs-api: shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("dgs-api: %v", err)
	}
	log.Print("dgs-api: clean shutdown")
}

// watchTLEs polls a TLE file by modification time and applies each new
// version as one atomic world update, matching elements to satellites by
// catalog number. Elements for satellites outside the constellation are
// skipped (shared elements files routinely cover several fleets).
func watchTLEs(ctx context.Context, store *serve.Store, path string, interval time.Duration) {
	var lastMod time.Time
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		fi, err := os.Stat(path)
		if err != nil {
			log.Printf("dgs-api: watch-tle: %v", err)
			continue
		}
		if !fi.ModTime().After(lastMod) {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			log.Printf("dgs-api: watch-tle: %v", err)
			continue
		}
		lastMod = fi.ModTime()
		ups, skipped, err := parseTLEFile(store, string(b))
		if err != nil {
			log.Printf("dgs-api: watch-tle: %s: %v", path, err)
			continue
		}
		if skipped > 0 {
			log.Printf("dgs-api: watch-tle: skipping %d elements outside the constellation", skipped)
		}
		if len(ups) == 0 {
			log.Printf("dgs-api: watch-tle: %s has no applicable elements", path)
			continue
		}
		res, err := store.Apply(serve.Update{TLEs: ups})
		if err != nil {
			log.Printf("dgs-api: watch-tle: apply: %v", err)
			continue
		}
		log.Printf("dgs-api: watch-tle: applied %d elements -> epoch %d (%d slots changed, incremental=%v)",
			len(ups), res.Epoch, res.ChangedSlots, res.Incremental)
	}
}

// parseTLEFile splits a concatenated TLE file (optional title line, then
// element lines 1 and 2, repeated) into per-satellite updates, dropping
// elements whose catalog number the store does not track.
func parseTLEFile(store *serve.Store, text string) (ups []serve.TLEUpdate, skipped int, err error) {
	var name string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		l := strings.TrimRight(lines[i], "\r \t")
		switch {
		case strings.TrimSpace(l) == "":
		case strings.HasPrefix(l, "1 "):
			if i+1 >= len(lines) {
				return nil, 0, errors.New("element line 1 at end of file")
			}
			l2 := strings.TrimRight(lines[i+1], "\r \t")
			if !strings.HasPrefix(l2, "2 ") {
				return nil, 0, errors.New("element line 1 not followed by line 2")
			}
			el, perr := tle.ParseLines(name, l, l2)
			if perr != nil {
				return nil, 0, perr
			}
			if store.HasNorad(el.NoradID) {
				ups = append(ups, serve.TLEUpdate{Name: name, Line1: l, Line2: l2})
			} else {
				skipped++
			}
			name = ""
			i++
		case strings.HasPrefix(l, "2 "):
			return nil, 0, errors.New("dangling element line 2")
		default:
			name = strings.TrimSpace(l)
		}
	}
	return ups, skipped, nil
}
