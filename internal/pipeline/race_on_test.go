//go:build race

package pipeline

// raceBuild reports whether the race detector is built in: it allocates
// for its own bookkeeping, so byte counts mean nothing under it.
const raceBuild = true
