package citadel_test

import (
	"bytes"
	"context"
	"fmt"

	citadel "repro"
)

// ExampleNewController shows the functional pipeline on a tiny stack:
// write a line, break its DRAM row, and read it back intact.
func ExampleNewController() {
	ctl, err := citadel.NewController(citadel.TinyConfig())
	if err != nil {
		panic(err)
	}
	line := bytes.Repeat([]byte{0x5A}, ctl.Config().LineBytes)
	if err := ctl.Write(7, line); err != nil {
		panic(err)
	}
	co := ctl.Config().CoordOfLineIndex(7)
	ctl.InjectFault(citadel.RowFault(co.Stack, co.Die, co.Bank, co.Row))
	got, err := ctl.Read(7)
	if err != nil {
		panic(err)
	}
	s := ctl.Stats()
	fmt.Println("intact:", bytes.Equal(got, line))
	fmt.Println("corrections:", s.Corrections, "rows spared:", s.RowsSpared)
	// Output:
	// intact: true
	// corrections: 1 rows spared: 1
}

// ExampleSimulate runs a small Monte Carlo study.
func ExampleSimulate() {
	res, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
		Trials: 2000,
		Seed:   1,
	}, citadel.SchemeCitadel)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Policy, "trials:", res.Trials)
	// Output:
	// Citadel trials: 2000
}

// ExampleComputeStorageOverhead reproduces the paper's §VII-E accounting.
func ExampleComputeStorageOverhead() {
	ov := citadel.ComputeStorageOverhead(citadel.DefaultConfig())
	fmt.Printf("DRAM overhead: %.1f%%\n", 100*ov.Total())
	// Output:
	// DRAM overhead: 14.1%
}

// ExampleSimulatePerformance compares striping layouts for one benchmark.
func ExampleSimulatePerformance() {
	b, _ := citadel.BenchmarkByName("mcf")
	base := citadel.SimulatePerformance(context.Background(), b, citadel.PerfOptions{Requests: 20000, Seed: 1})
	striped := citadel.SimulatePerformance(context.Background(), b, citadel.PerfOptions{
		Striping: citadel.AcrossChannels, Requests: 20000, Seed: 1,
	})
	fmt.Println("striping is slower:", striped.Cycles > base.Cycles)
	// Output:
	// striping is slower: true
}
