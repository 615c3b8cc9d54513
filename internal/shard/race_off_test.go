//go:build !race

package shard_test

// raceEnabled mirrors whether the test binary was built with -race. The
// allocation-ceiling test skips under the race detector, whose
// instrumentation perturbs allocation counts.
const raceEnabled = false
