// Command promlint validates a Prometheus text-format exposition — the
// output of perfplayd's GET /metrics — against the strict parser and
// the repo's metric-naming conventions (see internal/promtext and
// docs/OBSERVABILITY.md):
//
//   - the exposition parses: # HELP before # TYPE before samples,
//     contiguous families, well-formed labels, float values, no
//     duplicate series
//   - every family name carries the required prefix and is snake_case
//   - counters end in _total; histograms carry a unit suffix
//     (_seconds, _bytes); non-counters never end in _total
//
// Usage:
//
//	promlint [-prefix perfplay_] [-url http://host:8080/metrics] [file]
//
// With -url the exposition is scraped over HTTP; otherwise it is read
// from the named file, or stdin when no file is given. Exits non-zero
// on any violation, printing one line per problem — which is what lets
// CI gate every push on the daemon's own scrape.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"perfplay/internal/promtext"
)

func main() {
	prefix := flag.String("prefix", "perfplay_", "required metric-name prefix")
	url := flag.String("url", "", "scrape this URL instead of reading a file/stdin")
	flag.Parse()

	in, name, err := source(*url, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
	defer in.Close()

	families, err := promtext.Parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %s: exposition format violations:\n%v\n", name, err)
		os.Exit(1)
	}
	if problems := promtext.Lint(families, *prefix); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "promlint: %s: %s\n", name, p)
		}
		os.Exit(1)
	}
	fmt.Printf("promlint: %s: %d families ok\n", name, len(families))
}

func source(url, file string) (io.ReadCloser, string, error) {
	if url != "" {
		resp, err := http.Get(url)
		if err != nil {
			return nil, url, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, url, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		return resp.Body, url, nil
	}
	if file != "" {
		f, err := os.Open(file)
		return f, file, err
	}
	return io.NopCloser(os.Stdin), "stdin", nil
}
