//go:build !linux

package main

import "time"

// pinToOneCPU is Linux-only; elsewhere the run is not pinned and its
// numbers are not comparable with the reference box's.
func pinToOneCPU() error { return nil }

var processStart = time.Now()

// threadCPU falls back to the wall clock where the thread's CPU clock is
// not within reach.
func threadCPU() (time.Duration, error) { return time.Since(processStart), nil }
