package trace

// BuildSample hands the internal tests' sample trace to the external
// test package (the fuzz target that needs ulcp, which imports trace).
var BuildSample = buildSample
