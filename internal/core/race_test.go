//go:build race

package core

// raceEnabled reports whether the tests run under the race detector,
// which slows the wrapper reference enough that it samples des3.
const raceEnabled = true
