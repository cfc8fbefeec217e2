package fault

import (
	"fmt"
	"math/bits"

	"blackjack/internal/isa"
)

// Kind is the fault-model taxonomy: how a site behaves over time, as opposed
// to Class, which says where it lives. The zero value is KindPermanent, so
// every site built before the taxonomy existed keeps its meaning.
type Kind uint8

// Fault kinds.
const (
	// KindPermanent is the paper's hard fault: the defect corrupts every
	// eligible use, forever (optionally dormant until ArmAt).
	KindPermanent Kind = iota
	// KindTransient is a one-shot soft error: exactly one eligible use is
	// corrupted (the FireAt-th) and the fault then disappears. Equivalent to
	// the legacy Site.Transient flag.
	KindTransient
	// KindIntermittent is a duty-cycled defect (marginal circuit, thermal or
	// voltage sensitivity): the site cycles through on/off windows of
	// DutyPeriod eligible uses, corrupting only the first DutyOn uses of each
	// period, each thinned by an activation probability derived
	// deterministically from the site's identity.
	KindIntermittent
	// KindMultiBit is a permanent defect spanning several bits: an arbitrary
	// flip mask (BitMask with more than one bit) or a stuck-at pattern
	// (StuckMask/StuckValue) instead of a single-bit flip.
	KindMultiBit
	// KindControlFlow is a control-flow error: the site corrupts branch
	// targets (or, with FlipBranch, directions) computed on one backend way,
	// steering the pipeline's redirect points to wrong paths.
	KindControlFlow

	NumKinds
)

var kindNames = [NumKinds]string{
	KindPermanent:    "permanent",
	KindTransient:    "transient",
	KindIntermittent: "intermittent",
	KindMultiBit:     "multi-bit",
	KindControlFlow:  "control-flow",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every fault kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind resolves a kind name as accepted by the CLIs' -fault-kind flag.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want permanent, transient, intermittent, multi-bit or control-flow)", name)
}

// kind resolves the site's effective kind: an explicit Kind wins, the legacy
// Transient flag maps to KindTransient, everything else is permanent.
func (s *Site) kind() Kind {
	if s.Kind != KindPermanent {
		return s.Kind
	}
	if s.Transient {
		return KindTransient
	}
	return KindPermanent
}

// EffectiveKind exposes the resolved kind (explicit Kind, or KindTransient
// via the legacy Transient flag) for reporting.
func (s Site) EffectiveKind() Kind { return s.kind() }

// counted reports whether the site's firing decision depends on the running
// eligible-use count. Permanent (and armed-from-birth) sites skip the counter
// entirely — the hot-path fast path.
func (s *Site) counted() bool {
	switch s.kind() {
	case KindTransient, KindIntermittent:
		return true
	}
	return s.ArmAt > 0
}

// firesAt decides whether the n-th eligible use (1-based) is corrupted. It is
// the single source of truth for firing semantics: Injector.fires delegates
// here for corrupting injectors and probes alike.
func (s *Site) firesAt(n uint64) bool {
	switch s.kind() {
	case KindTransient:
		return n == s.shotAt()
	case KindIntermittent:
		return s.dutyFires(n)
	}
	if s.ArmAt > 0 {
		return n >= s.ArmAt
	}
	return true
}

// shotAt returns the eligible use (1-based) a one-shot transient corrupts.
func (s *Site) shotAt() uint64 {
	if s.FireAt == 0 {
		return 1
	}
	return s.FireAt
}

// spentAfter reports whether no eligible use after the n-th can fire: true
// only for a one-shot transient whose shot is at or before use n.
// Intermittent, arming, permanent and control-flow sites never run out.
func (s *Site) spentAfter(n uint64) bool {
	return s.kind() == KindTransient && n >= s.shotAt()
}

// dutyFires implements the intermittent window math: use n (1-based) lands in
// the on-window when its offset within the period is below DutyOn, then the
// activation probability thins the window with a per-use deterministic draw.
func (s *Site) dutyFires(n uint64) bool {
	period := s.DutyPeriod
	if period == 0 {
		period = 1
	}
	on := s.DutyOn
	if on == 0 {
		on = period
	}
	if (n-1)%period >= on {
		return false
	}
	prob := uint64(s.DutyProb)
	if prob == 0 || prob >= 100 {
		return true
	}
	return mix64(s.identitySeed()^n)%100 < prob
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
// The intermittent activation draw must be deterministic at any worker count
// and across cold/forked runs, so it is pure arithmetic on the site identity
// and the use index — no global RNG, no clock.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// identitySeed derives the intermittent probability seed from the site's
// coordinates, so two sites with the same duty parameters on different
// resources still draw independent activation patterns.
func (s *Site) identitySeed() uint64 {
	h := uint64(s.Class) | uint64(s.Unit)<<8 |
		uint64(uint32(s.Way))<<16 | uint64(uint32(s.Slot))<<24 | uint64(uint32(s.Thread))<<48
	h = mix64(h ^ uint64(s.Reg))
	h = mix64(h ^ s.BitMask)
	h = mix64(h ^ s.DutyPeriod ^ s.DutyOn<<32)
	return h
}

// FFEligible reports whether the site's classification survives the
// approximate handoff of functional fast-forward. One-shot transients,
// intermittents (whose duty windows are indexed by exact eligible-use
// counts) and control-flow errors (whose outcome depends on the speculative
// wrong-path state the handoff cannot reconstruct) are timing-sensitive and
// must stay on bit-exact cold/fork paths; permanent and multi-bit defects
// corrupt every use and are robust to handoff timing.
func (s Site) FFEligible() bool {
	switch s.kind() {
	case KindTransient, KindIntermittent, KindControlFlow:
		return false
	}
	return true
}

// SiteError is the typed rejection of a contradictory or malformed Site,
// returned by Validate and surfaced at campaign admission.
type SiteError struct {
	Site   Site
	Reason string
}

func (e *SiteError) Error() string {
	return fmt.Sprintf("fault: invalid site {%v}: %s", e.Site, e.Reason)
}

func (s Site) invalid(reason string) error { return &SiteError{Site: s, Reason: reason} }

// Validate rejects contradictory field combinations with a typed *SiteError.
// Campaign admission (sim.InjectProgram, sim.NewCampaignPlan,
// sim.CampaignProgram) calls it on every site, so a malformed site fails the
// whole campaign up front instead of silently meaning something else.
func (s Site) Validate() error {
	if s.Class >= NumClasses {
		return s.invalid("unknown class")
	}
	if s.Kind >= NumKinds {
		return s.invalid("unknown kind")
	}
	if s.Field >= NumDecodeFields {
		return s.invalid("unknown decode field")
	}
	if s.Transient && s.Kind != KindPermanent && s.Kind != KindTransient {
		return s.invalid("Transient flag contradicts Kind")
	}
	kind := s.kind()
	if s.Transient && s.ArmAt > 0 {
		return s.invalid("Transient and ArmAt are mutually exclusive (FireAt selects a transient's shot)")
	}
	if s.FireAt > 0 && kind != KindTransient {
		return s.invalid("FireAt requires a transient site")
	}
	if kind == KindIntermittent {
		if s.DutyPeriod == 0 {
			return s.invalid("intermittent site needs DutyPeriod >= 1")
		}
		if s.DutyOn == 0 || s.DutyOn > s.DutyPeriod {
			return s.invalid("DutyOn must be in [1, DutyPeriod]")
		}
		if s.ArmAt > 0 {
			return s.invalid("ArmAt is not supported on intermittent sites")
		}
	} else if s.DutyPeriod != 0 || s.DutyOn != 0 || s.DutyProb != 0 {
		return s.invalid("duty-cycle fields require KindIntermittent")
	}
	if s.DutyProb > 100 {
		return s.invalid("DutyProb is a percentage (0-100)")
	}
	if s.StuckMask == 0 && s.StuckValue != 0 {
		return s.invalid("StuckValue without StuckMask")
	}
	if s.StuckMask != 0 && s.StuckValue&^s.StuckMask != 0 {
		return s.invalid("StuckValue has bits outside StuckMask")
	}
	if (s.FlipBranch || s.CorruptAddr) && s.Class != BackendWay {
		return s.invalid("FlipBranch/CorruptAddr require a backend-way site")
	}
	if s.FlipBranch && s.CorruptAddr {
		return s.invalid("FlipBranch and CorruptAddr are mutually exclusive")
	}
	switch kind {
	case KindMultiBit:
		if bits.OnesCount64(s.BitMask) < 2 && bits.OnesCount64(s.StuckMask) < 2 {
			return s.invalid("multi-bit site needs a flip or stuck mask with at least two bits")
		}
		if (s.Class == FrontendWay || s.Class == PayloadRAM) && s.Field != FieldImm {
			return s.invalid("multi-bit decode corruption works through FieldImm only")
		}
		if s.FlipBranch {
			return s.invalid("FlipBranch on a multi-bit site is a control-flow error; use KindControlFlow")
		}
	case KindControlFlow:
		if s.Class != BackendWay {
			return s.invalid("control-flow site must live on a backend way")
		}
		if s.Unit != isa.UnitIntALU {
			return s.invalid("control-flow site must live on a branch-capable way (branches execute on intALU)")
		}
		if s.CorruptAddr {
			return s.invalid("CorruptAddr contradicts a control-flow site")
		}
		if s.StuckMask != 0 {
			return s.invalid("stuck-at masks do not apply to branch targets")
		}
	}
	return nil
}

// ValidateSites validates every site of a campaign list, annotating the
// failing index.
func ValidateSites(sites []Site) error {
	for i, s := range sites {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
	}
	return nil
}
