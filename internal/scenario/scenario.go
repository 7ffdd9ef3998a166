// Package scenario is the registry of named, composable protection-scheme
// and fault-model plugins that internal/faultsim simulates.
//
// A scheme plugin builds a complete engine Policy — correctability
// predicate (with incremental state when the predicate supports it),
// sparing policy, TSV-SWAP setting, and an optional arrival Observer —
// from a declarative parameter map. A fault-model plugin builds an
// arrival-process factory (faultsim.Arrivals, one instance per engine
// worker) from the geometry, the FIT rates, and the same parameter map.
// The existing hand-wired constructions became the first plugins: every
// citadel.Scheme constant is a registered name (schemes.go) and
// the Poisson FIT-rate process is the "poisson" fault model, so registry
// construction is bit-identical to the seed-era wiring (differential
// tests pin this).
//
// Composition rules: a simulation names one scheme and one fault model;
// they share a flat Params namespace whose keys are validated against the
// union of both plugins' declared ParamDocs (ValidateParams). Plugins
// read their knobs with defaults and ignore keys addressed to the other
// plugin. Scenario-specific outputs flow through additive
// Result.ScenarioStats counters; plugins must never let an observer or a
// stats counter change a verdict, an RNG draw, or trial control flow —
// the engine's determinism contract extends through every plugin.
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

// DefaultFaultModel is the arrival process used when a spec names none:
// Poisson arrivals at the configured FIT rates, exactly as the engine has
// always drawn them.
const DefaultFaultModel = "poisson"

// Params carries plugin-specific numeric knobs. Keys are validated
// against the registered ParamDocs (ValidateParams); plugins read values
// through Get so absent keys fall back to their documented defaults.
type Params map[string]float64

// Get returns the value of name, or def when absent.
func (p Params) Get(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// ParamDoc documents one knob of a plugin: its name, default, and
// meaning. The catalog endpoint serves these verbatim.
type ParamDoc struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Doc     string  `json:"doc"`
}

// Scheme is a registered protection-scheme plugin.
type Scheme struct {
	// Name identifies the scheme in specs, flags, and results.
	Name string
	// Description is a one-line summary for the catalog.
	Description string
	// Params documents the knobs Build reads. Keys outside every declared
	// doc are rejected by ValidateParams before Build runs.
	Params []ParamDoc
	// Build constructs the engine policy for a geometry. It must be pure:
	// equal inputs give policies that simulate bit-identically.
	Build func(cfg stack.Config, p Params) (faultsim.Policy, error)
}

// FaultModel is a registered arrival-process plugin.
type FaultModel struct {
	// Name identifies the model in specs and flags.
	Name string
	// Description is a one-line summary for the catalog.
	Description string
	// Params documents the knobs Build reads.
	Params []ParamDoc
	// Build returns a factory the engine calls once per worker goroutine;
	// each returned source may keep unsynchronized per-worker state but
	// must draw all randomness from the rng handed to AppendLifetime.
	Build func(cfg stack.Config, rates fault.Rates, p Params) (func() faultsim.Arrivals, error)
}

var (
	mu          sync.RWMutex
	schemes     = map[string]Scheme{}
	faultModels = map[string]FaultModel{}
)

// RegisterScheme adds a scheme plugin to the registry. It panics on an
// empty name, a nil Build, or a duplicate registration — registration
// happens in init functions, where a bad plugin is a programming error.
func RegisterScheme(s Scheme) {
	if s.Name == "" || s.Build == nil {
		panic("scenario: RegisterScheme requires a name and a Build function")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := schemes[s.Name]; dup {
		panic(fmt.Sprintf("scenario: scheme %q registered twice", s.Name))
	}
	schemes[s.Name] = s
}

// RegisterFaultModel adds a fault-model plugin to the registry, with the
// same panics-on-misuse contract as RegisterScheme.
func RegisterFaultModel(m FaultModel) {
	if m.Name == "" || m.Build == nil {
		panic("scenario: RegisterFaultModel requires a name and a Build function")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := faultModels[m.Name]; dup {
		panic(fmt.Sprintf("scenario: fault model %q registered twice", m.Name))
	}
	faultModels[m.Name] = m
}

// SchemeByName looks up a registered scheme plugin.
func SchemeByName(name string) (Scheme, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := schemes[name]
	return s, ok
}

// FaultModelByName looks up a registered fault-model plugin. The empty
// name resolves to DefaultFaultModel.
func FaultModelByName(name string) (FaultModel, bool) {
	if name == "" {
		name = DefaultFaultModel
	}
	mu.RLock()
	defer mu.RUnlock()
	m, ok := faultModels[name]
	return m, ok
}

// Schemes lists every registered scheme plugin, sorted by name.
func Schemes() []Scheme {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scheme, 0, len(schemes))
	for _, s := range schemes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FaultModels lists every registered fault-model plugin, sorted by name.
func FaultModels() []FaultModel {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]FaultModel, 0, len(faultModels))
	for _, m := range faultModels {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BuildScheme constructs the policy of a named scheme. Parameter keys are
// not validated here (the map is shared with the fault model); call
// ValidateParams first when the input is untrusted.
func BuildScheme(name string, cfg stack.Config, p Params) (faultsim.Policy, error) {
	s, ok := SchemeByName(name)
	if !ok {
		return faultsim.Policy{}, fmt.Errorf("scenario: unknown scheme %q", name)
	}
	return s.Build(cfg, p)
}

// BuildFaultModel constructs the per-worker arrivals factory of a named
// fault model ("" selects DefaultFaultModel).
func BuildFaultModel(name string, cfg stack.Config, rates fault.Rates, p Params) (func() faultsim.Arrivals, error) {
	m, ok := FaultModelByName(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown fault model %q", name)
	}
	return m.Build(cfg, rates, p)
}

// ValidateParams rejects parameter keys that neither the named scheme nor
// the named fault model declares — the two plugins share one flat
// namespace, so a key is valid if either side documents it. Unknown
// scheme or model names are reported too, so callers can validate a whole
// scenario selection with one call.
func ValidateParams(scheme, model string, p Params) error {
	s, ok := SchemeByName(scheme)
	if !ok {
		return fmt.Errorf("scenario: unknown scheme %q", scheme)
	}
	m, ok := FaultModelByName(model)
	if !ok {
		return fmt.Errorf("scenario: unknown fault model %q", model)
	}
	if len(p) == 0 {
		return nil
	}
	known := make(map[string]bool, len(s.Params)+len(m.Params))
	for _, d := range s.Params {
		known[d.Name] = true
	}
	for _, d := range m.Params {
		known[d.Name] = true
	}
	unknown := make([]string, 0, len(p))
	for k := range p {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("scenario: unknown parameter(s) %v for scheme %q with fault model %q",
			unknown, scheme, m.Name)
	}
	return nil
}

// Catalog is the machine-readable registry listing served at
// GET /api/v1/scenarios.
type Catalog struct {
	Schemes     []CatalogEntry `json:"schemes"`
	FaultModels []CatalogEntry `json:"faultModels"`
}

// CatalogEntry is one plugin row of the catalog.
type CatalogEntry struct {
	Name        string     `json:"name"`
	Description string     `json:"description"`
	Params      []ParamDoc `json:"params,omitempty"`
}

// BuildCatalog snapshots the registry into a Catalog, sorted by name.
func BuildCatalog() Catalog {
	var c Catalog
	for _, s := range Schemes() {
		c.Schemes = append(c.Schemes, CatalogEntry{Name: s.Name, Description: s.Description, Params: s.Params})
	}
	for _, m := range FaultModels() {
		c.FaultModels = append(c.FaultModels, CatalogEntry{Name: m.Name, Description: m.Description, Params: m.Params})
	}
	return c
}
