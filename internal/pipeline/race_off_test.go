//go:build !race

package pipeline

// raceBuild reports whether the race detector is built in.
const raceBuild = false
