// Command cssiserve runs the CSSI/CSSIA index as an HTTP similarity-
// search service. It either generates a synthetic dataset and builds a
// fresh index, or loads a previously saved one.
//
//	cssiserve -addr :8080 -kind twitter -size 20000          # fresh
//	cssiserve -addr :8080 -size 20000 -shards 8              # fresh, sharded
//	cssiserve -addr :8080 -index saved.idx                   # single-index file
//	cssiserve -addr :8080 -index saved.d/                    # sharded directory
//	cssiserve -addr :8080 -ops-addr :6060                    # + pprof/metrics listener
//
// With -shards N the index is hash-partitioned across N goroutine-owned
// shards: reads scatter/gather (exact results identical to unsharded),
// writes route to one shard and pay only that shard's copy-on-write
// cost. -index accepts both a single-index file (served as one shard)
// and a directory written by -save with -shards > 1. See
// internal/server for the JSON API, including GET /v1/metrics and
// POST /v1/debug/explain.
//
// Logs are structured (log/slog, logfmt text): -log-level=debug adds a
// per-request access log line carrying each request's X-Request-Id.
// -ops-addr starts a second listener with the pprof profiling
// endpoints plus /metrics and /healthz, kept off the public port.
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/embed"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		opsAddr   = flag.String("ops-addr", "", "optional second listen address for pprof + metrics (disabled when empty)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error (debug enables the per-request access log)")
		kind      = flag.String("kind", "twitter", "dataset kind when generating: twitter or yelp")
		size      = flag.Int("size", 20000, "dataset size when generating")
		dim       = flag.Int("dim", 100, "embedding dimensionality when generating")
		seed      = flag.Uint64("seed", 1, "random seed")
		shards    = flag.Int("shards", 1, "shard count when building (a loaded index keeps its stored shard count)")
		indexPath = flag.String("index", "", "load a saved index (file or sharded directory) instead of generating")
		savePath  = flag.String("save", "", "after building, save the index here (a directory when -shards > 1)")
		route     = flag.Bool("route", false, "use the learned cluster router by default on query requests (a request's own \"route\" field still wins)")
		target    = flag.Float64("route-target", 0, "default routed-approximate recall knob in (0,1] for requests that omit routeTarget (0 = library default)")
		deltaThr  = flag.Int("delta-threshold", 0, "write-overlay compaction threshold per shard: >0 ops before a background fold, 0 = library default, -1 disables the overlay (eager clone per write)")
		traceBuf  = flag.Int("trace-buffer", 1024, "retained-trace ring capacity for the always-on tracer (0 disables tracing)")
		slowQuery = flag.Duration("slow-query", 100*time.Millisecond, "latency at which a query trace is always retained and logged (0 disables the slow rule)")
		traceSamp = flag.Int("trace-sample", 128, "keep 1 in N normal (fast, successful) traces (0 keeps only slow/errored traces, 1 keeps everything)")
		slo       = flag.String("slo", "5ms,25ms,100ms", "comma-separated ascending latency objectives for the /metrics SLO block")
		cacheCap  = flag.Int("cache", 0, "result cache capacity in entries (>0 enables the snapshot-keyed result cache, -1 selects the library default capacity)")
		deadline  = flag.Duration("deadline", 0, "default time budget for query requests that omit deadlineMs (0 = unbounded); exhausted budgets answer partial results")
		inflight  = flag.Int("max-inflight", 0, "admission control: max concurrently executing requests per query endpoint (0 disables admission control, -1 selects GOMAXPROCS)")
		maxQueue  = flag.Int("max-queue", 64, "admission control: max requests queued per endpoint beyond max-inflight; the excess is shed with 429")
		queueWait = flag.Duration("queue-wait", 0, "admission control: max time a queued request waits for a slot before being shed (0 = 100ms default)")
	)
	flag.Parse()

	logger := newLogger(*logLevel)
	slog.SetDefault(logger)

	var (
		idx   *cssi.ShardedIndex
		model *embed.Model
		err   error
	)
	if *indexPath != "" {
		idx, err = cssi.LoadSharded(*indexPath)
		if err != nil {
			fatal(logger, "load failed", "path", *indexPath, "error", err)
		}
		logger.Info("loaded index",
			"path", *indexPath, "objects", idx.Len(),
			"hybridClusters", idx.NumClusters(), "shards", idx.NumShards())
	} else {
		var k cssi.DatasetKind
		switch *kind {
		case "twitter":
			k = cssi.TwitterLike
		case "yelp":
			k = cssi.YelpLike
		default:
			fatal(logger, "unknown dataset kind", "kind", *kind)
		}
		ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: k, Size: *size, Dim: *dim, Seed: *seed})
		if err != nil {
			fatal(logger, "dataset generation failed", "error", err)
		}
		model = ds.Model
		start := time.Now()
		idx, err = cssi.BuildSharded(ds, *shards, cssi.Options{Seed: *seed})
		if err != nil {
			fatal(logger, "build failed", "error", err)
		}
		logger.Info("built index",
			"objects", idx.Len(), "hybridClusters", idx.NumClusters(),
			"shards", idx.NumShards(), "durationMs", time.Since(start).Milliseconds())
	}
	if *savePath != "" {
		// SaveDir writes the manifest + per-shard layout; for one shard
		// that is still loadable (and LoadSharded also reads legacy
		// single-index files saved by older builds).
		if err := idx.SaveDir(*savePath); err != nil {
			fatal(logger, "save failed", "path", *savePath, "error", err)
		}
		logger.Info("saved index", "path", *savePath)
	}

	api := server.NewSharded(idx, model)
	api.SetLogger(logger)
	api.SetRouteDefaults(*route, *target)
	if err := api.SetDeltaDefaults(*deltaThr); err != nil {
		fatal(logger, "invalid -delta-threshold", "value", *deltaThr, "error", err)
	}
	api.SetTraceOptions(*traceBuf, traceSlowArg(*slowQuery), traceSampleArg(*traceSamp))
	objectives, err := parseSLO(*slo)
	if err != nil {
		fatal(logger, "invalid -slo", "value", *slo, "error", err)
	}
	if err := api.SetSLOObjectives(objectives); err != nil {
		fatal(logger, "invalid -slo", "value", *slo, "error", err)
	}
	if *route && !idx.RouterTrained() {
		logger.Warn("router default requested but not every shard carries a trained router; untrained shards run unrouted")
	}
	if *cacheCap != 0 {
		capacity := *cacheCap
		if capacity < 0 {
			capacity = 0 // library default capacity
		}
		api.EnableResultCache(capacity)
		logger.Info("result cache enabled", "capacity", capacity)
	}
	api.SetDefaultDeadline(*deadline)
	if *inflight != 0 {
		n := *inflight
		if n < 0 {
			n = 0 // GOMAXPROCS
		}
		if err := api.SetAdmissionLimits(n, *maxQueue, *queueWait); err != nil {
			fatal(logger, "invalid admission limits", "error", err)
		}
		logger.Info("admission control enabled",
			"maxInFlight", n, "maxQueue", *maxQueue, "queueWait", *queueWait)
	}

	if *opsAddr != "" {
		ops := &http.Server{
			Addr:              *opsAddr,
			Handler:           api.OpsHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("ops listener starting", "addr", *opsAddr)
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal(logger, "ops listener failed", "error", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger.Info("cssiserve listening", "addr", *addr)
	if err = srv.ListenAndServe(); err != nil {
		fatal(logger, "listener failed", "error", err)
	}
}

// newLogger builds the process logger: logfmt text on stderr at the
// requested level.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// traceSlowArg maps the -slow-query flag to the library convention:
// the flag's 0 means "slow rule off", the library's 0 means "default".
func traceSlowArg(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

// traceSampleArg maps the -trace-sample flag to the library
// convention: the flag's 0 means "only slow/errored", the library's 0
// means "default".
func traceSampleArg(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// parseSLO parses the -slo flag: a comma-separated list of ascending
// Go durations, e.g. "5ms,25ms,100ms".
func parseSLO(s string) ([]time.Duration, error) {
	parts := strings.Split(s, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		d, err := time.ParseDuration(p)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// fatal logs at Error level and exits nonzero (slog has no Fatal).
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
