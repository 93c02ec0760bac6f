// Command staledetect trains the full stale-data detection pipeline on a
// change cube and reports the fields that look out of date — the paper's
// deployment scenario (Figure 1): marking values whose expected change did
// not happen.
//
// Usage:
//
//	staledetect -i corpus.wcc [-asof 2019-09-01] [-window 7] [-stats] [-timing] [-limit 50]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/obs/olog"
	"github.com/wikistale/wikistale/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("staledetect: ")
	var (
		in     = flag.String("i", "corpus.wcc", "input binary change cube")
		asOf   = flag.String("asof", "", "detection date (YYYY-MM-DD); default: end of the data")
		window = flag.Int("window", 7, "staleness window in days (1, 7, 30 or 365)")
		stats  = flag.Bool("stats", false, "print filter-funnel and rule statistics")
		timing = flag.Bool("timing", false, "print the training stage-timing report")
		limit  = flag.Int("limit", 50, "maximum alerts to print (0 = all)")

		logLevel  = flag.String("log-level", "info", "structured-log level: debug, info, warn, or error")
		logFormat = flag.String("log-format", "text", `structured-log format: "text" or "json"`)
	)
	flag.Parse()

	if _, err := olog.Setup(os.Stderr, *logLevel, *logFormat); err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	cube, err := changecube.ReadBinary(f)
	f.Close()
	if err != nil {
		log.Fatalf("reading %s: %v", *in, err)
	}

	start := time.Now()
	det, err := core.Train(cube, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained on %d changes in %v\n",
		cube.NumChanges(), time.Since(start).Round(time.Millisecond))

	if *timing {
		fmt.Fprint(os.Stderr, det.TrainReport())
	}
	if *stats {
		fmt.Print(det.FilterStats())
		fmt.Printf("field-correlation rules: %d\n", det.FieldCorrelations().NumRules())
		fmt.Printf("association rules:       %d (covering %d pages)\n",
			det.AssociationRules().NumRules(), det.AssociationRules().CoveredPages(cube))
	}

	day := det.Histories().Span().End
	if *asOf != "" {
		t, err := time.Parse("2006-01-02", *asOf)
		if err != nil {
			log.Fatalf("bad -asof date: %v", err)
		}
		day = timeline.DayOf(t)
	}

	alerts := det.DetectStale(day, *window)
	fmt.Printf("%d potentially stale fields as of %s (window %dd)\n", len(alerts), day, *window)
	for i, a := range alerts {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... and %d more\n", len(alerts)-*limit)
			break
		}
		page := cube.Pages.Name(int32(cube.Page(a.Field.Entity)))
		prop := cube.Properties.Name(int32(a.Field.Property))
		fmt.Printf("  %s | %s: %s (%v)\n", page, prop, a.Explanation, a.Sources)
	}
}
