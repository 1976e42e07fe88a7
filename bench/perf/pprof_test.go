package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

// TestCPUShares records a CPU profile while this package spins, decodes it
// with the package's own reader, and checks the shares add up and land on
// this package.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinSink = spin(500 * time.Millisecond)
	pprof.StopCPUProfile()

	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("shares sum to %.3f%%, want 100 ± 0.1: %v", sum, shares)
	}
	if shares["bench"] <= 50 {
		t.Errorf("this package got %.1f%% of the samples, want the majority: %v", shares["bench"], shares)
	}
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinSink = spin(20 * time.Millisecond)
	pprof.StopCPUProfile()
	if _, err := cpuShares(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
