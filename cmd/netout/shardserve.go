package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netout"
	"netout/internal/shardnet"
)

// Shard-server mode (-shard-serve): this process hosts its network behind
// the shardnet protocol so a coordinator started with -shard-addrs can
// scatter queries to it. The slice a shard serves is decided per query by
// the coordinator's candidate partition; every shard therefore loads the
// same network (same -net/-gen flags) and builds its own index.

type shardServeConfig struct {
	listen   string
	workers  int // requests run at once (reuses -workers)
	queue    int // admitted requests waiting beyond workers (reuses -max-queue; 0 = 2×workers)
	reg      *netout.MetricsRegistry
	grace    time.Duration
	adminSrv *http.Server
	quiet    bool
}

// runShardServe builds the pool from eng, as -serve does, and blocks serving
// shard requests through it on cfg.listen until SIGINT/SIGTERM, then drains:
// the shard server finishes in-flight requests (Close waits for them), the
// pool closes after it, and the admin endpoint gets cfg.grace to drain.
func runShardServe(eng *netout.Engine, cfg shardServeConfig) error {
	if cfg.queue <= 0 {
		cfg.queue = 2 * max(cfg.workers, 1)
	}
	pool := netout.NewServePool(eng, netout.ServeOptions{Workers: cfg.workers, MaxQueue: cfg.queue})
	srv := shardnet.NewServer(pool, shardnet.ServerOptions{Obs: cfg.reg, Logf: log.Printf})
	lis, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	if !cfg.quiet {
		fmt.Printf("shard server on %s (protocol v%d; SIGINT/SIGTERM to drain)\n",
			lis.Addr(), netout.ShardProtocolVersion)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-stop
		if !cfg.quiet {
			fmt.Println("shard server draining ...")
		}
		srv.Close()
		pool.Close()
		shutdownHTTP(cfg.adminSrv, cfg.grace)
		close(drained)
	}()
	if err := srv.Serve(lis); err != nil {
		return err
	}
	<-drained
	return nil
}
