// Command wikigen generates a synthetic Wikipedia infobox change corpus
// and writes it as a binary change cube (and optionally as a JSON-lines
// change-event feed that staleserve -live -source replays).
//
// Usage:
//
//	wikigen -o corpus.wcc [-jsonl corpus.jsonl] [-scale small|default]
//	        [-seed N] [-templates N] [-entities N] [-stubs N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wikigen: ")
	var (
		out       = flag.String("o", "corpus.wcc", "output path for the binary change cube")
		jsonl     = flag.String("jsonl", "", "optional output path for a JSON-lines change-event feed (staleserve -live -source)")
		scale     = flag.String("scale", "default", "base configuration: small or default")
		seed      = flag.Int64("seed", 1, "generation seed")
		templates = flag.Int("templates", 0, "override the number of templates (0 = keep scale default)")
		entities  = flag.Int("entities", 0, "override mean entities per template (0 = keep scale default)")
		stubs     = flag.Int("stubs", -1, "override stub infoboxes per entity (-1 = keep scale default)")
	)
	flag.Parse()

	var cfg dataset.Config
	switch *scale {
	case "small":
		cfg = dataset.Small()
	case "default":
		cfg = dataset.Default()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	if *templates > 0 {
		cfg.NumTemplates = *templates
	}
	if *entities > 0 {
		cfg.MeanEntitiesPerTemplate = *entities
	}
	if *stubs >= 0 {
		cfg.StubsPerEntity = *stubs
	}

	cube, truth, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := cube.WriteBinary(f); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if *jsonl != "" {
		jf, err := os.Create(*jsonl)
		if err != nil {
			log.Fatal(err)
		}
		if err := ingest.WriteEvents(jf, ingest.CubeEvents(cube)); err != nil {
			log.Fatalf("writing %s: %v", *jsonl, err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %s: %d changes, %d entities, %d templates, %d pages\n",
		*out, cube.NumChanges(), cube.NumEntities(), cube.Templates.Len(), cube.Pages.Len())
	fmt.Printf("planted structure: %d clusters, %d implications, %d forgotten updates\n",
		len(truth.Clusters), len(truth.Implications), len(truth.Forgotten))
}
