// Package mechanism is the plugin layer for fault-tolerant
// voltage-scaling mechanisms: the paper's proposed PCS scheme and every
// competitor it is compared against (Fig. 3, the min-VDD and area
// tables) behind one small interface, discovered through an ordered
// registry. The analytical studies in internal/expers iterate the
// registry instead of naming schemes, so adding a competitor is one
// Register call — the comparison tables, min-VDD rows, area rows, CLI
// selection (-mechanisms) and spec validation all pick it up. The
// runtime scaling policies (baseline/SPCS/DPCS) are not plugins here:
// they live in internal/core, and their names resolve through
// core.ParseMode.
package mechanism

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/sram"
)

// Setup bundles the shared model stack for one cache organisation — the
// same stack expers.CacheSetup carries, duplicated here (value form) so
// this package does not import expers. Adapters capture from it
// whatever their scheme needs.
type Setup struct {
	Org  cacti.Org
	Tech device.Tech
	// CM is the baseline cacti model (no PCS overheads); CMPCS carries
	// the fault map + power gates sized for NLowVDDs low levels.
	CM    *cacti.Model
	CMPCS *cacti.Model
	BER   sram.BERModel
	FM    *faultmodel.Model
	// NLowVDDs is the number of low-voltage levels the mechanism must
	// support (2 reproduces the paper's three-level comparison); map-
	// carrying schemes pay per level.
	NLowVDDs int
}

// Digest is the canonical value identity of a setup: two setups built
// from equal organisations and level counts digest identically however
// they were constructed. Memo layers key on this instead of pointer
// identity.
func (s Setup) Digest() string {
	return fmt.Sprintf("%s/%dB/%dw/%dB/a%d/serial=%t/nlow=%d",
		s.Org.Name, s.Org.SizeBytes, s.Org.Assoc, s.Org.BlockBytes,
		s.Org.AddrBits, s.Org.SerialTagData, s.NLowVDDs)
}

// AreaOverhead is a mechanism's silicon cost relative to the baseline
// (data + tag) array area.
type AreaOverhead struct {
	// Fraction is the added area as a fraction of the baseline array.
	Fraction float64
	// Detail names what the overhead pays for.
	Detail string
}

// Mechanism is one fault-tolerant voltage-scaling scheme evaluated
// analytically on a fixed cache setup.
type Mechanism interface {
	// Name is the registry key (lowercase, stable).
	Name() string
	// Label is the display name used in table columns and rows.
	Label() string
	// Yield returns the probability the whole cache is functional at
	// the given data-array voltage.
	Yield(vdd float64) float64
	// EffectiveCapacity returns the expected usable-block fraction at
	// the given voltage.
	EffectiveCapacity(vdd float64) float64
	// StaticPower returns total static power (W) at the given voltage,
	// using cm — the setup's baseline cacti model — for the shared
	// component model; schemes with their own overhead model (e.g. the
	// PCS fault map) consult the setup's models instead.
	StaticPower(cm *cacti.Model, vdd float64) float64
	// MinVDDForYield returns the lowest grid voltage in [lo, hi]
	// meeting the yield target, or ok=false.
	MinVDDForYield(target, lo, hi float64) (float64, bool)
	// AreaOverhead reports the mechanism's silicon cost.
	AreaOverhead() AreaOverhead
}

// StepCurver is implemented by mechanisms whose power/capacity
// trade-off steps through discrete configurations at nominal voltage
// (way gating) rather than tracking VDD; Fig. 3a plots the step curve
// alongside the voltage-scaling curves.
type StepCurver interface {
	PowerCapacityCurve() (caps, watts []float64)
}

// Tabler is implemented by mechanisms with scheme-specific analytical
// tables beyond the shared Fig. 3 comparisons (e.g. TS-Cache's replay
// penalty, L2C2's salvage probability), rendered over [lo, hi] volts.
type Tabler interface {
	Tables(lo, hi float64) []*report.Table
}

// Descriptor registers one mechanism: identity, presentation, which
// comparison surfaces it appears on, and its constructor.
type Descriptor struct {
	// Name is the registry key ("fftcache", "tscache", ...).
	Name string
	// Label is the row/column display name ("FFT-Cache").
	Label string
	// ShortLabel is the compact column prefix for paired-column tables
	// (Fig. 3a's "FFT cap"/"FFT mW").
	ShortLabel string
	// Version participates in content-addressed cache keys for
	// mechanism-parameterised cells; bump it whenever the model's
	// output changes so stale cached cells miss.
	Version string
	// Rank orders the registry. Capacity/power comparisons list
	// mechanisms rank-descending (strongest first, the paper's column
	// order); yield and summary tables list rank-ascending (weakest
	// first, the paper's row order).
	Rank int
	// Default marks the paper's Fig. 3 comparison set.
	Default bool
	// Scales: the scheme trades capacity/power against VDD, so it has
	// per-voltage curves (Fig. 3a/3b columns).
	Scales bool
	// Yields: the scheme has a meaningful yield-vs-VDD curve and a
	// min-VDD entry (Fig. 3d columns, min-VDD rows).
	Yields bool
	// Steps: the scheme has a discrete nominal-voltage trade-off curve
	// (Fig. 3a's way-gating line).
	Steps bool
	// Summary is the one-line description for -list-mechanisms.
	Summary string
	// New builds the mechanism on a setup.
	New func(Setup) (Mechanism, error)
}

var (
	regMu     sync.RWMutex
	registry  []Descriptor
	regByName = map[string]Descriptor{}
)

// Register adds a mechanism to the registry, kept ordered by Rank (ties
// by registration order). Names must be unique.
func Register(d Descriptor) error {
	if d.Name == "" || d.Label == "" || d.New == nil {
		return fmt.Errorf("mechanism: descriptor needs name, label and constructor")
	}
	if d.ShortLabel == "" {
		d.ShortLabel = d.Label
	}
	if d.Version == "" {
		d.Version = "1"
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[d.Name]; dup {
		return fmt.Errorf("mechanism: %q already registered", d.Name)
	}
	i := sort.Search(len(registry), func(i int) bool { return registry[i].Rank > d.Rank })
	registry = append(registry, Descriptor{})
	copy(registry[i+1:], registry[i:])
	registry[i] = d
	regByName[d.Name] = d
	return nil
}

// MustRegister is Register, panicking on error (init-time use).
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// All returns every registered mechanism in rank order.
func All() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// ByName looks a mechanism up by its registry key.
func ByName(name string) (Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := regByName[name]
	return d, ok
}

// Names returns every registered name in rank order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.Name
	}
	return out
}

// DefaultNames returns the paper's comparison set in rank order.
func DefaultNames() []string {
	var out []string
	for _, d := range All() {
		if d.Default {
			out = append(out, d.Name)
		}
	}
	return out
}

// Resolve maps a selection of names to descriptors in rank order. A nil
// or empty selection means the default (paper) set. Unknown or
// duplicated names are errors; whitespace around names is ignored.
func Resolve(names []string) ([]Descriptor, error) {
	if len(names) == 0 {
		names = DefaultNames()
	}
	seen := make(map[string]bool, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("mechanism: empty mechanism name in selection")
		}
		if _, ok := ByName(name); !ok {
			return nil, fmt.Errorf("mechanism: unknown mechanism %q (known: %v)", name, Names())
		}
		if seen[name] {
			return nil, fmt.Errorf("mechanism: mechanism %q listed twice", name)
		}
		seen[name] = true
	}
	var out []Descriptor
	for _, d := range All() {
		if seen[d.Name] {
			out = append(out, d)
		}
	}
	return out, nil
}

// gridYieldFromBlockFail folds a per-block failure probability into a
// whole-cache yield with the paper's set model: a set is dysfunctional
// when all effWays candidate blocks fail, the cache when any set is.
func gridYieldFromBlockFail(pBlockFail float64, effWays, sets int) float64 {
	if pBlockFail <= 0 {
		return 1
	}
	if pBlockFail >= 1 {
		return 0
	}
	pSetFail := powInt(pBlockFail, effWays)
	if pSetFail >= 1 {
		return 0
	}
	return expLog1p(sets, -pSetFail)
}
