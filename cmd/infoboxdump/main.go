// Command infoboxdump parses page revision histories into a change cube:
// the ingest path from raw MediaWiki markup to the data model the detector
// trains on. Two input formats are supported:
//
//   - jsonl (default): one revision per line,
//     {"page": "London", "time": 1536000000, "text": "{{Infobox ...}}", "bot": false}
//     Revisions of the same page may appear in any order; pages may
//     interleave.
//   - xml: a MediaWiki XML export (pages-meta-history), as served by
//     dumps.wikimedia.org. Decompress before piping in.
//
// Usage:
//
//	infoboxdump -i revisions.jsonl -o corpus.wcc [-jsonl changes.jsonl]
//	infoboxdump -format xml -i dump.xml -o corpus.wcc
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/revision"
)

// inputRevision is one line of the input stream.
type inputRevision struct {
	Page string `json:"page"`
	Time int64  `json:"time"`
	Text string `json:"text"`
	Bot  bool   `json:"bot,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("infoboxdump: ")
	var (
		in     = flag.String("i", "-", "input revisions; - for stdin")
		format = flag.String("format", "jsonl", "input format: jsonl or xml (MediaWiki export)")
		out    = flag.String("o", "corpus.wcc", "output path for the binary change cube")
		jsonl  = flag.String("jsonl", "", "optional output path for a JSON-lines change-event feed (staleserve -live -source)")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	cube := changecube.New()
	extractor := revision.NewExtractor(cube)
	var nPages int
	switch *format {
	case "jsonl":
		pages, order, err := readRevisions(r)
		if err != nil {
			log.Fatal(err)
		}
		for _, page := range order {
			if err := extractor.AddPage(page, pages[page]); err != nil {
				log.Fatalf("page %q: %v", page, err)
			}
		}
		nPages = len(pages)
	case "xml":
		stats, err := revision.ParseXMLDump(r, extractor)
		if err != nil {
			log.Fatal(err)
		}
		nPages = stats.Pages
	default:
		log.Fatalf("unknown format %q (want jsonl or xml)", *format)
	}
	cube.Sort()
	if err := cube.Validate(); err != nil {
		log.Fatalf("extracted cube invalid: %v", err)
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
	fmt.Printf("parsed %d pages into %d changes (%d infoboxes, %d templates, %d properties)\n",
		nPages, cube.NumChanges(), cube.NumEntities(), cube.Templates.Len(), cube.Properties.Len())
}

// readRevisions groups the input stream by page, keeping first-seen page
// order for deterministic output.
func readRevisions(r io.Reader) (map[string][]revision.Revision, []string, error) {
	pages := make(map[string][]revision.Revision)
	var order []string
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<26)
	line := 0
	for scanner.Scan() {
		line++
		raw := scanner.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rev inputRevision
		if err := json.Unmarshal(raw, &rev); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rev.Page == "" {
			return nil, nil, fmt.Errorf("line %d: missing page title", line)
		}
		if _, seen := pages[rev.Page]; !seen {
			order = append(order, rev.Page)
		}
		pages[rev.Page] = append(pages[rev.Page], revision.Revision{
			Time: rev.Time,
			Text: rev.Text,
			Bot:  rev.Bot,
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, err
	}
	return pages, order, nil
}
