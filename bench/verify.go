package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"perfplay/internal/pipeline"
	"perfplay/internal/trace"
)

// goldenSeed is the seed whose reports are pinned in golden/.
const goldenSeed = 42

// pinned is one report the benchmark expects: its hash and the exact
// sizes of the analysis behind it.
type pinned struct {
	SHA256 string `json:"sha256"`
	counts
}

// golden maps workload → op key → pinned report.
type golden map[string]map[string]pinned

func goldenPath(root string) string {
	return filepath.Join(root, "bench", "golden", fmt.Sprintf("seed%d.json", goldenSeed))
}

func loadGolden(root string) (golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

func (g golden) save(root string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(root)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}

// reference computes, in this process and serially, the report the
// product must serve for one op: pipeline.Run on the decoded bytes,
// prefixed for CLI ops by the header line the CLI prints.
func reference(in *input, o opSpec, cli bool) (pinned, error) {
	tr, err := trace.ReadAny(bytes.NewReader(in.data))
	if err != nil {
		return pinned{}, err
	}
	res, err := pipeline.Run(pipeline.Request{
		Trace: tr, TraceDigest: in.digest, TraceBytes: int64(len(in.data)),
		Schemes: o.Schemes, DetectRaces: o.Races,
	})
	if err != nil {
		return pinned{}, err
	}
	report := res.Report
	if cli {
		report = fmt.Sprintf("analyzing %s %s (%d events, %d threads)\n", tr.App, in.digest, len(tr.Events), tr.NumThreads) + report
	}
	sum := sha256.Sum256([]byte(report))
	return pinned{SHA256: hex.EncodeToString(sum[:]), counts: countsOf(tr, res.Analysis)}, nil
}

// verifiedKeys picks the keys whose reports are checked against an
// in-process reference: every key of a small plan, and of larger plans
// the keys of every fourth or every tenth trace. (All reports of one key
// must agree with each other whether or not the key is sampled.)
func verifiedKeys(p plan, served map[string]opSpec) []string {
	stride := 1
	switch {
	case len(p.traces) > 100:
		stride = 10
	case len(p.traces) > 20:
		stride = 4
	}
	var keys []string
	for k, o := range served {
		if o.Trace%stride == 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// planKeys lists every op key a plan can serve, reached or not, so the
// golden file does not depend on how far a timed phase got.
func planKeys(p plan) map[string]opSpec {
	keys := map[string]opSpec{}
	for _, o := range p.warm {
		keys[o.key()] = o
	}
	for i := 0; i < p.span; i++ {
		if o, ok := p.op(i); ok {
			keys[o.key()] = o
		}
	}
	return keys
}

// verify checks the reports a phase served. Every report was already
// required to be the same each time its key was served; here the
// verified keys are compared with the serial in-process reference and,
// for the golden seed, with the pinned hashes. Mismatching ops are added
// to ph.failed.
func verify(w workloadDef, p plan, st *state, ph *phase, pins map[string]pinned) error {
	for _, k := range verifiedKeys(p, ph.specs) {
		o := ph.specs[k]
		ref, err := reference(st.inputs[o.Trace], o, !w.daemon)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", k, err)
		}
		if got := ph.reports[k]; got != ref.SHA256 {
			ph.failed += ph.perKey[k]
			ph.failures = append(ph.failures, fmt.Sprintf("%s: served report %s, in-process reference %s", k, got[:12], ref.SHA256[:12]))
		}
		if pin, ok := pins[k]; ok && pin != ref {
			ph.failed += ph.perKey[k]
			ph.failures = append(ph.failures, fmt.Sprintf("%s: reference %+v differs from golden %+v", k, ref, pin))
		}
	}
	return nil
}
