// Command slsim runs the metaverse region server: it hosts one of the
// paper's three calibrated lands (or a mobility baseline) over the slp
// wire protocol so that crawlers (cmd/slcrawl) and sensor builders
// (cmd/slsensor) can connect, exactly as the paper's monitors connected
// to Second Life.
//
// With -estate it instead simulates a multi-region estate grid offline
// and writes one τ-sampled trace file per region to -trace-dir, ready
// for the sharded analysis of slanalyze's multi-file mode.
//
// Usage:
//
//	slsim -land dance -addr 127.0.0.1:7600 -warp 600 -seed 42
//	slsim -estate paper -duration 7200 -trace-dir traces/
//
// With warp 600 a full 24-hour measurement completes in 144 wall seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"slmob/internal/server"
	"slmob/internal/trace"
	"slmob/internal/world"
)

func main() {
	var (
		land     = flag.String("land", "dance", "target land: apfel, dance, isle, rwp, levy")
		addr     = flag.String("addr", "127.0.0.1:7600", "listen address")
		warp     = flag.Float64("warp", 600, "simulated seconds per wall second")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		duration = flag.Int64("duration", world.DayDuration, "scenario duration in sim seconds")
		password = flag.String("password", "", "require this login password")
		estate   = flag.String("estate", "", "simulate an estate offline: paper (1x3) or mainland (4x4)")
		traceDir = flag.String("trace-dir", "traces", "estate mode: write per-region trace files here")
		tau      = flag.Int64("tau", 10, "estate mode: snapshot period in sim seconds")
	)
	flag.Parse()

	if *estate != "" {
		runEstate(*estate, *seed, *duration, *tau, *traceDir)
		return
	}

	var scn world.Scenario
	switch *land {
	case "rwp":
		scn = world.BaselineScenario(world.RandomWaypoint, *seed)
	case "levy":
		scn = world.BaselineScenario(world.LevyWalk, *seed)
	default:
		var err error
		scn, err = world.PaperLand(*land, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}
	scn.Duration = *duration

	// A single land is a 1×1 estate; its one region listens on -addr.
	srv, err := server.NewEstate(server.EstateConfig{
		Estate:      world.SingleRegionEstate(scn),
		RegionAddrs: []string{*addr},
		Warp:        *warp,
		Password:    *password,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slsim: hosting %q (%s land, cap %d) on %s, warp %gx, duration %ds\n",
		scn.Land.Name, scn.Land.Kind, scn.Land.EffectiveMaxAvatars(),
		srv.RegionAddr(0), *warp, scn.Duration)
	fmt.Printf("slsim: the %ds scenario takes %s of wall clock\n", scn.Duration,
		time.Duration(float64(scn.Duration)/(*warp)*float64(time.Second)).Round(time.Second))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := srv.Run(ctx); err != nil && ctx.Err() == nil && !errors.Is(err, server.ErrDurationReached) {
		log.Printf("slsim: %v", err)
	}
	fmt.Printf("slsim: stopped at sim time %d\n", srv.SimTime())
}

// runEstate simulates a preset estate on the shared clock and writes one
// trace file per region.
func runEstate(preset string, seed uint64, duration, tau int64, dir string) {
	var cfg world.EstateConfig
	switch preset {
	case "paper":
		cfg = world.PaperEstate(seed)
	case "mainland":
		cfg = world.MainlandEstate(seed)
	default:
		log.Fatalf("slsim: unknown estate %q (want paper or mainland)", preset)
	}
	if duration > 0 {
		cfg.Duration = duration
	}
	src, err := world.NewEstateSource(cfg, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slsim: simulating estate %q (%dx%d regions) for %ds at tau=%ds\n",
		cfg.Name, cfg.Rows, cfg.Cols, cfg.EffectiveDuration(), tau)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	trs, err := trace.CollectEstate(ctx, src)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	est := src.Estate()
	for i, tr := range trs {
		name := strings.Map(func(r rune) rune {
			switch r {
			case ' ', '(', ')', ',':
				return '_'
			}
			return r
		}, strings.ToLower(tr.Land))
		path := filepath.Join(dir, fmt.Sprintf("region%02d_%s.sltr", i, name))
		if err := trace.WriteFile(tr, path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slsim: %s -> %s (%d snapshots, %d unique)\n",
			tr.Land, path, len(tr.Snapshots), tr.UniqueUsers())
	}
	fmt.Printf("slsim: estate done in %s — %d border crossings, %d teleports, %d blocked handoffs\n",
		time.Since(start).Round(time.Millisecond), est.Crossings(), est.Teleports(), est.BlockedHandoffs())
}
