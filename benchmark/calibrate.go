package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed adjustment. On a shared host the engine's speed swings by up
// to 2x for minutes at a time, as neighbours contend for caches and memory;
// a loop of random reads over a table far larger than a core's L2 cache
// slows down with the engine (README "Host-speed adjustment" has the data).
// The engine workloads therefore run hostScale before every campaign and
// report each campaign's time scaled by calibrationRefMs / calibration
// time: the time the campaign would have taken on the reference host. The
// kernel is part of the benchmark, not of the code under test, so it runs
// the same on both sides of a comparison.

// calibrationRefMs is about the kernel's time on the reference host (2
// vCPUs of an Intel Xeon with 2 MiB of L2 per core). It only fixes the
// unit: both sides of a comparison divide by the same constant.
const calibrationRefMs = 10.0

// calibrationOps is the table reads (and writes) of one kernel run.
const calibrationOps = 70_000

// calibrationBytes is the table's size: 16 times the reference host's L2,
// so nearly every read misses it wherever the table's pages sit. A table
// near L2's size times page placement instead: two copies of a 2 MiB kernel
// in one process ran 2.5x apart.
const calibrationBytes = 32 << 20

// calibrationTable is mapped outside the Go heap, so it neither delays the
// collections of the campaigns it calibrates nor lets their garbage grow.
// It does count in the resident set; peakRSSMiB leaves it out.
var calibrationTable []uint64

// calibrationSink keeps the kernel's result alive.
var calibrationSink uint64

// mapCalibrationTable maps and fills the kernel's table; hostScale needs it.
func mapCalibrationTable() error {
	if calibrationTable != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, calibrationBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("mapping the calibration table: %w", err)
	}
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	x := uint64(1)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	calibrationTable = table
	return nil
}

// hostScale times a fixed chain of dependent random reads and writes over
// calibrationTable and returns calibrationRefMs divided by that time: a
// host time measured now, multiplied by it, is the reference host's time.
// It is not safe for concurrent use.
func hostScale() float64 {
	// A collection still running from the caller's last burst of work would
	// share the CPUs and memory with the kernel and slow it.
	runtime.GC()
	table, mask := calibrationTable, uint64(len(calibrationTable)-1)
	start := time.Now()
	x, sum := uint64(1), uint64(0)
	for i := 0; i < calibrationOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ sum) & mask
		sum += table[j]
		table[j] = sum
	}
	calibrationSink = sum
	return calibrationRefMs / ms(time.Since(start))
}
