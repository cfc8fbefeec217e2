package fault

import "slices"

// InjectorUses exposes an injector's per-site eligible-use counters to the
// external tests.
func InjectorUses(inj *Injector) []uint64 { return slices.Clone(inj.uses) }
