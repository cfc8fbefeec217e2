package fault

import (
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// Hook names one pipeline.Injector hook: the kind of use a site corrupts.
type Hook uint8

// Injector hooks.
const (
	HookDecode       Hook = iota // CorruptDecode
	HookPayload                  // CorruptPayload
	HookResult                   // CorruptResult
	HookAddr                     // CorruptAddr
	HookBranch                   // CorruptBranch
	HookBranchTarget             // CorruptBranchTarget
	HookRegRead                  // CorruptRegRead
	NumHooks
)

// AnyThread is a payload Resource's Thread when the payload RAM is shared:
// every thread's reads of the slot go through the faulty entry.
const AnyThread = -1

// Resource is the static coordinate of one hook call: the physical resource
// the use flows through. Only the fields of the hook's own signature are
// set: Way for decode; Slot and Thread for payload reads; Unit and Way for
// the backend hooks (result, address, branch, branch target); Reg for
// register reads.
type Resource struct {
	Hook   Hook
	Unit   isa.UnitClass
	Way    int
	Slot   int
	Thread int
	Reg    rename.PhysReg
}

// cell maps the resource to its (major, minor) cell in a hook's grid: the
// unit class and way for backend hooks, the reading thread (0 under a shared
// RAM) and slot for payload reads, and (0, way) or (0, register) otherwise.
func (r Resource) cell() (major, minor int) {
	switch r.Hook {
	case HookDecode:
		return 0, r.Way
	case HookPayload:
		return max(r.Thread, 0), r.Slot
	case HookRegRead:
		return 0, int(r.Reg)
	}
	return int(r.Unit), r.Way
}

// resource returns where hook h can corrupt a use on site s, and false when
// the hook never touches the site. These are the static conjuncts of every
// hook's match condition; what remains per use (trigger, firing count) is
// decided by the hook itself.
func (s *Site) resource(h Hook, split bool) (Resource, bool) {
	switch h {
	case HookDecode:
		return Resource{Hook: h, Way: s.Way}, s.Class == FrontendWay
	case HookPayload:
		if !split {
			return Resource{Hook: h, Slot: s.Slot, Thread: AnyThread}, s.Class == PayloadRAM
		}
		return Resource{Hook: h, Slot: s.Slot, Thread: s.Thread}, s.Class == PayloadRAM && s.Thread >= 0
	case HookRegRead:
		return Resource{Hook: h, Reg: s.Reg}, s.Class == RegisterFile
	}
	r := Resource{Hook: h, Unit: s.Unit, Way: s.Way}
	if s.Class != BackendWay {
		return r, false
	}
	switch h {
	case HookResult:
		return r, !s.CorruptAddr && !s.FlipBranch && s.kind() != KindControlFlow
	case HookAddr:
		return r, s.CorruptAddr
	case HookBranch:
		return r, s.FlipBranch
	case HookBranchTarget:
		return r, s.kind() == KindControlFlow && !s.FlipBranch
	}
	return r, false
}

// grid maps a hook's (major, minor) cells to the indexes of the sites there,
// in site-list order.
type grid [][][]int32

func (g grid) at(major, minor int) []int32 {
	if uint(major) < uint(len(g)) && uint(minor) < uint(len(g[major])) {
		return g[major][minor]
	}
	return nil
}

// add files site i in a cell and reports whether it is the cell's first.
func (g *grid) add(major, minor, i int) bool {
	if major < 0 || minor < 0 {
		return false
	}
	if major >= len(*g) {
		*g = append(*g, make(grid, major+1-len(*g))...)
	}
	row := &(*g)[major]
	if minor >= len(*row) {
		*row = append(*row, make([][]int32, minor+1-len(*row))...)
	}
	(*row)[minor] = append((*row)[minor], int32(i))
	return len((*row)[minor]) == 1
}

// siteIndex is the one answer to "which sites can this use corrupt": per
// hook, the ordered sites at each resource, and the list of resources with
// any site at all. Injector and Probe both build one from their site list on
// first use, so the list must not change afterwards.
//
// A hook at a resource outside watched visits no site, so it returns its
// input and counts no use, activation or fire cycle: the machine may skip
// the call altogether (pipeline.Injector.Watched).
type siteIndex struct {
	built   bool
	hooks   [NumHooks]grid
	watched []Resource
}

func (x *siteIndex) build(sites []Site, split bool) {
	for i := range sites {
		for h := Hook(0); h < NumHooks; h++ {
			r, ok := sites[i].resource(h, split)
			if !ok {
				continue
			}
			if major, minor := r.cell(); x.hooks[h].add(major, minor, i) {
				x.watched = append(x.watched, r)
			}
		}
	}
	x.built = true
}

// payloadThread is the payload grid's major coordinate for a read by
// thread: the thread under split RAMs, 0 under a shared one.
func payloadThread(split bool, thread int) int {
	if split {
		return thread
	}
	return 0
}
