package trace

// BuildSample hands the internal tests' sample trace to the external
// test package (the fuzz target that needs ulcp, which imports trace).
var BuildSample = buildSample

// TracesEqual, SameTrace and ReadBinaryRef hand the external test
// package the comparisons and the reference decoder, for the tests that
// need sim and transform (which import trace).
var (
	TracesEqual   = tracesEqual
	SameTrace     = sameTrace
	ReadBinaryRef = readBinaryRef
)
