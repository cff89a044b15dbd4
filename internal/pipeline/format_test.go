package pipeline

import (
	"bytes"
	"io"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// TestReportIdenticalAcrossTraceFormats runs the full analysis over the
// same recording loaded from all three on-disk encodings. The report —
// the repo's determinism currency — must be byte-identical regardless
// of which format carried the trace; a columnar load that adopted a wrong side index or dropped a sidecar
// field would surface here as report drift.
func TestReportIdenticalAcrossTraceFormats(t *testing.T) {
	app := workload.MustGet("mysql")
	rec := sim.Run(app.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7}), sim.Config{Seed: 7})

	encoders := map[string]func(*trace.Trace, io.Writer) error{
		"binary":   (*trace.Trace).WriteBinary,
		"columnar": (*trace.Trace).WriteColumnar,
		"json":     (*trace.Trace).WriteJSON,
	}

	var want string
	for name, write := range encoders {
		var buf bytes.Buffer
		if err := write(rec.Trace, &buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		tr, err := trace.ReadAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		res, err := Run(Request{Trace: tr.Warm(), TopK: 5, Schemes: true})
		if err != nil {
			t.Fatalf("%s: pipeline: %v", name, err)
		}
		if want == "" {
			want = res.Report
		}
		if res.Report != want {
			t.Fatalf("%s: report differs across trace formats:\nwant:\n%s\ngot:\n%s",
				name, want, res.Report)
		}
	}
}
