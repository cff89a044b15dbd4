package trace

// BuildSample hands the internal tests' sample trace to the external
// test package (the fuzz target that needs ulcp, which imports trace).
var BuildSample = buildSample

// TracesEqual and ReadBinaryRef hand the external test package the
// event-by-event comparison and the reference decoder, for the tests
// that need sim and transform (which import trace).
var (
	TracesEqual   = tracesEqual
	ReadBinaryRef = readBinaryRef
)
