// TSV-SWAP demo: break data and address TSVs at runtime and watch the
// controller detect the corruption through CRC-32, implicate the TSVs via
// the fixed-row probe, and redirect traffic to stand-by TSVs — all without
// manufacturer-provided spares (paper section V). The controller runs
// internal/tsv's TSV-SWAP, the one the Monte Carlo engine uses: four
// stand-by TSVs give each channel 8 transfer beats, a data TSV costs 2
// and an address TSV 1, and a channel whose budget is spent keeps its
// faulty TSVs.
package main

import (
	"bytes"
	"fmt"
	"log"

	citadel "repro"
)

func main() {
	ctl, err := citadel.NewController(citadel.TinyConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := ctl.Config()

	// Fill channel 0 with data.
	var idxs []int64
	for idx := int64(0); idx < cfg.TotalLines(); idx++ {
		if cfg.CoordOfLineIndex(idx).Die != 0 {
			continue
		}
		line := bytes.Repeat([]byte{byte(idx % 251)}, cfg.LineBytes)
		if err := ctl.Write(idx, line); err != nil {
			log.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	fmt.Printf("wrote %d lines into channel 0\n", len(idxs))

	// A faulty data TSV corrupts 2 bits of EVERY line transferred on the
	// channel — a multi-bank failure from a single via.
	fmt.Println("\ninjecting data-TSV fault (TSV 7) on channel 0")
	ctl.InjectFault(citadel.DataTSVFault(cfg, 0, 0, 7))

	got, err := ctl.Read(idxs[0])
	if err != nil {
		log.Fatal(err)
	}
	want := bytes.Repeat([]byte{byte(idxs[0] % 251)}, cfg.LineBytes)
	if !bytes.Equal(got, want) {
		log.Fatal("TSV-SWAP failed to restore the data")
	}
	s := ctl.Stats()
	fmt.Printf("first read: CRC mismatch detected=%d, TSV repairs=%d, data intact\n",
		s.CRCMismatches, s.TSVRepairs)

	// An address TSV fault is far more severe: half of the channel's rows
	// become unreachable, returning the WRONG row's data. Only the
	// address-seeded CRC catches that.
	fmt.Println("\ninjecting addr-TSV fault (row address bit 2) on channel 0")
	ctl.InjectFault(citadel.AddrTSVFault(0, 0, 2))

	var checked int
	for _, idx := range idxs {
		co := cfg.CoordOfLineIndex(idx)
		if co.Row&(1<<2) == 0 {
			continue // reachable half
		}
		got, err := ctl.Read(idx)
		if err != nil {
			log.Fatalf("line %d: %v", idx, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(idx % 251)}, cfg.LineBytes)) {
			log.Fatalf("line %d: wrong data after addr-TSV repair", idx)
		}
		checked++
	}
	s = ctl.Stats()
	fmt.Printf("verified %d lines in the previously unreachable half\n", checked)
	fmt.Printf("totals: CRC mismatches=%d, TSV repairs=%d, 3DP corrections=%d\n",
		s.CRCMismatches, s.TSVRepairs, s.Corrections)
}
