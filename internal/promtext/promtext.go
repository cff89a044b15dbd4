// Package promtext checks a Prometheus text exposition, perfplayd's
// GET /metrics, without the daemon linking it: a strict parser and a
// metric-name lint. The repo's tests hold every scrape to both, and
// cmd/promlint, the CI smoke check that scrapes a live daemon, runs
// them as a command.
package promtext

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Family is one parsed metric family from a text exposition.
type Family struct {
	Name string
	Help string
	Type string
	// Series are the family's sample lines (metric name + label set),
	// in exposition order.
	Series []string
}

// sampleLine tolerates braces and commas inside quoted label values
// (route patterns like "GET /jobs/{id}" are legitimate label values);
// the label block ends only at a close brace outside quotes.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[^{}"]|"(?:\\.|[^"\\])*")*\})?\s+(\S+)(\s+\d+)?$`)

var labelPair = regexp.MustCompile(
	`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// snakeCase is the shape Lint wants of a family name, the shape
// telemetry's registry also enforces.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// Parse parses Prometheus text-format input strictly:
//
//   - every non-blank line is a # HELP, # TYPE or sample line
//   - each family's # HELP and # TYPE precede its samples, in that
//     order, exactly once
//   - a family's samples are contiguous (no interleaving)
//   - sample names match the family (allowing _bucket/_sum/_count for
//     histograms), label sets are well-formed, values parse as floats
//   - no duplicate series (same name and label set)
//
// It returns the parsed families in order plus every violation found
// (not just the first), so a CI failure names all problems at once.
func Parse(r io.Reader) ([]Family, error) {
	var (
		families []Family
		cur      *Family
		closed   = map[string]bool{} // families whose sample block ended
		seen     = map[string]bool{} // full series lines seen (dup check)
		errs     []error
	)
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				fail(n, "malformed HELP line %q", line)
				continue
			}
			if closed[name] {
				fail(n, "family %s re-opened after its samples ended", name)
			}
			if cur != nil {
				closed[cur.Name] = true
			}
			families = append(families, Family{Name: name, Help: rest[len(name)+1:]})
			cur = &families[len(families)-1]
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				fail(n, "malformed TYPE line %q", line)
				continue
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail(n, "unknown metric type %q for %s", typ, name)
			}
			if cur == nil || cur.Name != name {
				fail(n, "TYPE for %s without a preceding HELP", name)
				continue
			}
			if cur.Type != "" {
				fail(n, "duplicate TYPE for %s", name)
				continue
			}
			if len(cur.Series) > 0 {
				fail(n, "TYPE for %s after its samples", name)
			}
			cur.Type = typ
		case strings.HasPrefix(line, "#"):
			fail(n, "unexpected comment %q (only # HELP and # TYPE allowed)", line)
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				fail(n, "unparsable sample line %q", line)
				continue
			}
			name, labels, value := m[1], m[2], m[3]
			if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
				fail(n, "sample value %q does not parse as a float", value)
			}
			if labels != "" {
				for _, pair := range splitLabels(labels[1 : len(labels)-1]) {
					if !labelPair.MatchString(pair) {
						fail(n, "malformed label pair %q", pair)
					}
				}
			}
			if cur == nil {
				fail(n, "sample %s before any HELP/TYPE", name)
				continue
			}
			if !sampleBelongsTo(name, cur.Name, cur.Type) {
				fail(n, "sample %s interleaved into family %s", name, cur.Name)
				continue
			}
			if cur.Type == "" {
				fail(n, "sample %s before its family's TYPE", name)
			}
			key := name + labels
			if seen[key] {
				fail(n, "duplicate series %s", key)
			}
			seen[key] = true
			cur.Series = append(cur.Series, key)
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, err)
	}
	if cur != nil {
		closed[cur.Name] = true
	}
	for i := range families {
		if families[i].Type == "" {
			errs = append(errs, fmt.Errorf("family %s has HELP but no TYPE", families[i].Name))
		}
		if len(families[i].Series) == 0 {
			errs = append(errs, fmt.Errorf("family %s has no samples", families[i].Name))
		}
	}
	return families, errors.Join(errs...)
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var out []string
	var b strings.Builder
	inQuotes, escaped := false, false
	for _, r := range body {
		switch {
		case escaped:
			escaped = false
			b.WriteRune(r)
		case r == '\\' && inQuotes:
			escaped = true
			b.WriteRune(r)
		case r == '"':
			inQuotes = !inQuotes
			b.WriteRune(r)
		case r == ',' && !inQuotes:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(r)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}

// sampleBelongsTo reports whether a sample name is legal inside the
// named family: an exact match, or the histogram/summary expansion
// suffixes.
func sampleBelongsTo(sample, fam, typ string) bool {
	if sample == fam {
		return true
	}
	if typ == "histogram" || typ == "summary" {
		return sample == fam+"_bucket" || sample == fam+"_sum" ||
			sample == fam+"_count" || (typ == "summary" && sample == fam)
	}
	return false
}

// Lint enforces the repo's metric-name conventions over parsed
// families:
//
//   - every name carries the given prefix (e.g. "perfplay_")
//   - names are snake_case: lowercase, no leading/trailing/double
//     underscores
//   - counters end in _total; nothing else does
//   - histograms end in a base unit suffix (_seconds or _bytes)
//   - gauges carry a unit suffix where one applies (_bytes, _seconds,
//     _ratio) or a bare count noun; they must not end in _total
//
// It returns one message per violation, empty when everything passes.
func Lint(families []Family, prefix string) []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, f := range families {
		name := f.Name
		if prefix != "" && !strings.HasPrefix(name, prefix) {
			bad("%s: missing the %q prefix", name, prefix)
		}
		if !snakeCase.MatchString(name) {
			bad("%s: not snake_case", name)
		}
		switch f.Type {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				bad("%s: counters must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				bad("%s: histograms must end in a unit suffix (_seconds or _bytes)", name)
			}
		default:
			if strings.HasSuffix(name, "_total") {
				bad("%s: only counters may end in _total", name)
			}
		}
	}
	return problems
}
