// Command bench is the repository's end-to-end serving benchmark: it builds
// cmd/netout, boots real server processes, drives them closed-loop over
// loopback HTTP (and, behind the coordinator, the TCP shard protocol),
// checks every answer, and reports seven end-to-end metrics per workload
// plus a per-layer attribution table. README.md describes the protocol.
//
//	go run ./bench -seed 1                     full run: four workloads interleaved
//	go run ./bench -smoke                      one short round of everything, for CI
//	go run ./bench -compare a.json b.json      compare two runs (or two comma-separated sets)
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                           one workload, as the benchmark driver runs it
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// outDir is where a run writes: result.json, the span files, the netout
// binary and the temp dir.
const outDir = "bench/out"

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var (
		seed     = flag.Int64("seed", 1, "seed of everything random: the graph, the anchors, the request order")
		workload = flag.String("workload", "", "run this one workload and print the driver's result line (default: all four, interleaved)")
		seconds  = flag.Float64("seconds", 20, "with -workload: how long to measure")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "one round of one-tenth-length lists, one boot, short calibration loop")
		compare  = flag.Bool("compare", false, "compare two result files (each argument a comma-separated set) instead of running")
		watchdog = flag.Bool("watchdog", false, "internal: the process a run starts to clean up after it should it be killed")
	)
	flag.Parse()
	if *watchdog {
		return watchdogMain(os.Stdin)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[,a2.json…] b.json[,b2.json…]")
			return 2
		}
		return compareCode(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		return 2
	}

	// The full run: ten untraced rounds, a traced one after every second.
	cfg := config{spec: sp, seed: *seed, names: sp.workloadNames(), rounds: 10, tracedEvery: 2, boots: 5, div: 1, calibSeeds: calibSeeds, layerPass: true}
	switch {
	case *smoke:
		cfg.rounds, cfg.tracedEvery, cfg.boots, cfg.div, cfg.calibSeeds = 1, 1, 1, 10, calibSeeds/4
	case *workload != "":
		cfg.names, cfg.rounds, cfg.seconds = []string{*workload}, 0, *seconds
		if *trace != 0 {
			cfg.tracedEvery, cfg.boots = 1, 0
		} else {
			cfg.tracedEvery, cfg.layerPass = 0, false
		}
	}

	// SIGINT and SIGTERM reach only the harness (children have their own
	// process groups): kill them, drop the temp dir, then go.
	sigc := make(chan os.Signal, 1)
	interrupted := make(chan struct{})
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		close(interrupted)
		cleanup()
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		os.Exit(130)
	}()

	res, err := run(cfg)
	select {
	case <-interrupted:
		select {} // the run failed because its servers were killed; let the handler exit
	default:
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := res.write(filepath.Join(outDir, "result.json")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	res.print(os.Stdout, sp)
	if *smoke {
		if missing := res.missing(sp); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "bench: metrics not emitted: %s\n", strings.Join(missing, ", "))
			return 1
		}
	}
	if *workload != "" {
		line, err := res.driverLine(sp, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if n := res.failed(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed operations\n", n)
		return 1
	}
	return 0
}
