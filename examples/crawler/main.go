// Crawler example: the full networked measurement path of the paper. It
// serves Isle of View as a 1×1 estate under a heavy time warp,
// connects the mimicking crawler over TCP, collects a one-hour trace at
// τ = 10 s from coarse map pushes, and analyses it — all in one process,
// but over a real socket.
//
//	go run ./examples/crawler
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"slmob"
	"slmob/internal/crawler"
)

func main() {
	scn := slmob.IsleOfView(7)
	scn.Duration = 86400

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, err := slmob.ServeEstate(ctx, slmob.SingleRegionEstate(scn),
		slmob.WithWarp(1200)) // one sim hour ≈ 3 wall seconds
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region server hosting %q on %s (warp 1200x)\n", scn.Land.Name, svc.RegionAddr(0))

	cr, err := crawler.New(crawler.Config{
		Addr:     svc.RegionAddr(0),
		Name:     "paper-crawler",
		Tau:      slmob.PaperTau,
		Duration: 3600,
		Mimic:    true,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawler logged in as avatar %d, mimicking a normal user\n", cr.SelfID())

	// Stream the crawl straight into the incremental analyzer: no trace is
	// ever materialised, and the context bounds the whole measurement.
	runCtx, timeout := context.WithTimeout(ctx, 2*time.Minute)
	defer timeout()
	an, err := slmob.AnalyzeStream(runCtx, cr.Source(), slmob.WithSeatedRepair())
	cr.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(an.Summary)

	cs := an.Contacts[slmob.BluetoothRange]
	fmt.Printf("from the wire (1 m coarse map): median CT %.0fs, ICT %.0fs over %d pairs\n",
		cs.CT.Median(), cs.ICT.Median(), cs.Pairs)
	if err := svc.Stop(); err != nil {
		log.Fatal(err)
	}
}
