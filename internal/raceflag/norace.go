//go:build !race

// Package raceflag reports whether the race detector is compiled in.
// Allocation-budget tests skip under -race: the detector's
// instrumentation changes what escapes to the heap, so their counts
// would not mean what they mean in a normal build.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
