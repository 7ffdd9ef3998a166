package scenario

import (
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
)

// The seed-era schemes and the Poisson arrival process, registered under
// the names the paper's figures print — the values of the citadel.Scheme
// constants. Every citadel entry point builds its policy here, and the
// differential tests pin every one of these constructions bit-identical
// to the pre-registry hand-wiring.

// registerFixed registers a parameterless scheme whose Build wraps a
// plain policy constructor. The policy's report name is the registry
// name, matching the pre-registry naming exactly (TSV-SWAP suffixing
// stays in the citadel package, where the option lives).
func registerFixed(name, desc string, build func(cfg stack.Config) faultsim.Policy) {
	RegisterScheme(Scheme{
		Name:        name,
		Description: desc,
		Build: func(cfg stack.Config, _ Params) (faultsim.Policy, error) {
			pol := build(cfg)
			pol.Name = name
			return pol, nil
		},
	})
}

func init() {
	dds := func(c stack.Config) faultsim.Sparer { return sparing.New(c) }
	registerFixed("None", "unprotected baseline",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NoProtection{}}
		})
	registerFixed("Symbol8/Same-Bank", "8-bit symbol code, line in one bank",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.SameBank)}
		})
	registerFixed("Symbol8/Across-Banks", "8-bit symbol code, line striped across the banks of one channel",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossBanks)}
		})
	registerFixed("Symbol8/Across-Channels", "8-bit symbol code, line striped across channels (ChipKill-like)",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
		})
	registerFixed("1DP", "parity bank only (Dimension 1)",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
		})
	registerFixed("2DP", "two-dimensional parity",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.TwoDP)}
		})
	registerFixed("3DP", "full Tri-Dimensional Parity",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
		})
	registerFixed("3DP+DDS", "3DP plus Dynamic Dual-granularity Sparing",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP), NewSparer: dds}
		})
	registerFixed("Citadel", "TSV-SWAP + 3DP + DDS (the full proposal)",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{
				Predicate: ecc.NewParity(cfg, parity.ThreeDP),
				NewSparer: dds, UseTSVSwap: true,
			}
		})
	registerFixed("BCH-6EC7ED", "6-bit-correct/7-bit-detect BCH per line",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
		})
	registerFixed("RAID-5", "RAID-5-style parity across channels",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewRAID5(cfg)}
		})
	registerFixed("2D-ECC", "prior-work 2D error coding over 32x32 cell tiles",
		func(cfg stack.Config) faultsim.Policy {
			return faultsim.Policy{Predicate: ecc.NewTwoDECC(cfg)}
		})

	RegisterFaultModel(FaultModel{
		Name:        DefaultFaultModel,
		Description: "Poisson fault arrivals at the configured FIT rates (the paper's Table-I process)",
		Build: func(cfg stack.Config, rates fault.Rates, _ Params) (func() faultsim.Arrivals, error) {
			// Exactly the construction the engine performs when no factory
			// is set — same sampler, same RNG draw sequence — so routing
			// through the registry is bit-identical to the seed-era path.
			return func() faultsim.Arrivals { return fault.NewSampler(cfg, rates) }, nil
		},
	})
}
