package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"blackjack/internal/core"
	"blackjack/internal/detect"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/prog"
	"blackjack/internal/redundancy"
	"blackjack/internal/rename"
)

// Every Machine field is either compared by Matches or named here as
// harness-only. A new field fails TestMatchesFieldInventory until it is
// placed in one of the two lists (and, if compared, added to Matches).
var (
	matchedFields = []string{
		"cfg", "mode", "prog", "mem", "rf", "freeList", "threads",
		"iq", "slotGSeq", "iqFree", "leadInIQ", "unitFreeAt",
		"readyMask", "regWaiters", "cal", "calMask", "packetPending", "doneCal",
		"pred", "dcache", "boq", "lvq", "sb", "stream",
		"dtq", "shuffler", "packets", "dr", "oc", "sink", "areaModel",
		"cycle", "gseq", "cap", "leadStopped", "archBase",
		"lvqInFlight", "sbInFlight", "lastCommitTotal", "lastProgressCycle",
		"stats", "storeSig",
	}
	harnessFields = []string{
		"inj", "watch", "tracer", "shuffleObs", "otr", "metrics",
		"hIQ", "hDTQ", "hBOQ", "hLVQ", "runCtx", "stopOnDetect", "stop",
		"uopFree", "entryFree", "uopSlab", "entrySlab", "selScratch",
		"uopCopies", "entryCopies",
	}
)

func TestMatchesFieldInventory(t *testing.T) {
	listed := map[string]string{}
	for _, f := range matchedFields {
		listed[f] = "matched"
	}
	for _, f := range harnessFields {
		if listed[f] != "" {
			t.Errorf("field %s is listed as both matched and harness-only", f)
		}
		listed[f] = "harness"
	}
	mt := reflect.TypeOf(Machine{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		if listed[name] == "" {
			t.Errorf("Machine.%s is neither compared by Matches nor listed as harness-only", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("listed field %s does not exist on Machine", name)
	}
}

// referenceMatches is the test oracle for Matches: reflect.DeepEqual over
// snapshots normalized to live state, plus a word-by-word memory compare
// through the public accessor.
func referenceMatches(m *Machine, cp *Checkpoint) bool {
	a, b := m.Snapshot().m, cp.m.Snapshot().m
	if a.MemSize() != b.MemSize() {
		return false
	}
	for addr := 0; addr < a.MemSize(); addr += 8 {
		if a.MemWord(uint64(addr)) != b.MemWord(uint64(addr)) {
			return false
		}
	}
	normalize(a)
	normalize(b)
	return reflect.DeepEqual(a, b)
}

// skippedFields names, per type, the state that cannot steer a run: harness
// hooks, record pools, scratch buffers and lookup caches.
var skippedFields = map[reflect.Type][]string{
	reflect.TypeOf(Machine{}):           append([]string{"mem"}, harnessFields...),
	reflect.TypeOf(core.DTQ{}):          {"bySeq", "scratch"},
	reflect.TypeOf(core.Shuffler{}):     {"slotFree", "outScratch"},
	reflect.TypeOf(redundancy.Stream{}): {"scratch"},
	reflect.TypeOf(rename.FreeList{}):   {"free"},
	reflect.TypeOf(detect.Sink{}):       {"Observer"},
}

// normalize rewrites the machine graph in place: skipped fields are zeroed
// and every queues.Ring is rotated so its live elements start at buffer
// index 0 (where a ring's head sits is not state).
func normalize(m *Machine) {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			t := v.Type()
			for _, name := range skippedFields[t] {
				f := settable(v.FieldByName(name))
				f.Set(reflect.Zero(f.Type()))
			}
			if t.PkgPath() == "blackjack/internal/queues" && strings.HasPrefix(t.Name(), "Ring[") {
				rotateRing(v)
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(m))
}

func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

func rotateRing(v reflect.Value) {
	buf, head := settable(v.FieldByName("buf")), settable(v.FieldByName("head"))
	n, h := buf.Len(), int(head.Int())
	out := reflect.MakeSlice(buf.Type(), n, n)
	for i := 0; i < n; i++ {
		out.Index(i).Set(buf.Index((h + i) % n))
	}
	buf.Set(out)
	head.SetInt(0)
}

// oneShot is a transient fault on the first integer ALU way: it corrupts
// one result and is spent.
func oneShot(fireAt uint64) *fault.Injector {
	return &fault.Injector{Sites: []fault.Site{{
		Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9,
		Transient: true, FireAt: fireAt,
	}}}
}

// warmupCheckpoints runs a fault-free machine to the end, snapshotting it
// every interval cycles.
func warmupCheckpoints(t *testing.T, cfg Config, mode Mode, p *isa.Program, n int, interval int64) []*Checkpoint {
	t.Helper()
	m, err := New(cfg, mode, p)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Checkpoint
	st := m.RunWithCheckpoints(n, interval, func(live *Machine) { cps = append(cps, live.Snapshot()) })
	if st.Deadlocked || len(cps) < 3 {
		t.Fatalf("warmup deadlocked=%v with %d checkpoints", st.Deadlocked, len(cps))
	}
	return cps
}

// Matches must agree with the reference on forks from every checkpoint, at
// every later checkpoint, for all five variants: fault-free forks (equal
// throughout) and forks carrying a one-shot fault (unequal while the
// corruption lives, possibly equal again once it is masked).
func TestMatchesAgreesWithReference(t *testing.T) {
	const n, interval = 3000, 250
	p := prog.MustBenchmark("gcc")
	for _, v := range snapshotVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCacheConfig(v.merge)
			cps := warmupCheckpoints(t, cfg, v.mode, p, n, interval)
			byCycle := map[int64]*Checkpoint{}
			for _, cp := range cps {
				byCycle[cp.Cycle()] = cp
			}
			var equal, unequal int
			for k, cp := range cps {
				for _, inj := range []*fault.Injector{nil, oneShot(uint64(40 + 30*k))} {
					var opts []Option
					if inj != nil {
						opts = append(opts, WithInjector(inj))
					}
					f := Fork(cp, opts...)
					f.RunWithCheckpoints(n, interval, func(live *Machine) {
						ref := byCycle[live.Cycle()]
						if ref == nil {
							return
						}
						got, want := live.Matches(ref), referenceMatches(live, ref)
						if got != want {
							t.Fatalf("fork@%d injected=%v at cycle %d: Matches=%v, reference=%v",
								cp.Cycle(), inj != nil, live.Cycle(), got, want)
						}
						if inj == nil && !got {
							t.Fatalf("fault-free fork@%d differs from the warmup at cycle %d", cp.Cycle(), live.Cycle())
						}
						if got {
							equal++
						} else {
							unequal++
						}
						// A checkpoint from another cycle never matches.
						if other := cps[0]; other != ref && live.Matches(other) {
							t.Fatalf("cycle %d matches the checkpoint of cycle %d", live.Cycle(), other.Cycle())
						}
					})
				}
			}
			if equal == 0 || unequal == 0 {
				t.Fatalf("comparisons not exercised both ways: %d equal, %d unequal", equal, unequal)
			}
		})
	}
}

// field returns a settable view of the unexported field path below v.
func field(v any, path ...string) reflect.Value {
	r := reflect.ValueOf(v)
	for _, name := range path {
		r = settable(reflect.Indirect(r).FieldByName(name))
	}
	return r
}

// One changed piece of state in any corner of the machine flips Matches.
func TestMatchesCatchesMutations(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	cfg := smallCacheConfig(false)
	cps := warmupCheckpoints(t, cfg, ModeBlackJack, p, 3000, 250)
	cp := cps[len(cps)/2]
	mutations := []struct {
		name   string
		mutate func(f *Machine)
	}{
		{"memory word", func(f *Machine) { f.mem.Store(8, f.mem.Load(8)^1) }},
		{"cache tag", func(f *Machine) {
			// The tag word of the first valid way in the first L1 tag page.
			pages := field(f.dcache, "l1", "pages")
			for i := 0; i < pages.Len(); i++ {
				pg := pages.Index(i)
				for w := 0; w < pg.Len(); w += 2 {
					if pg.Index(w+1).Uint() != 0 {
						pg.Index(w).SetUint(pg.Index(w).Uint() ^ 1)
						return
					}
				}
			}
			t.Fatal("no valid L1 line at the checkpoint")
		}},
		{"completion bucket", func(f *Machine) {
			for i, b := range f.doneCal {
				if len(b) > 0 {
					f.doneCal[i] = b[:len(b)-1]
					return
				}
			}
			t.Fatal("no completion pending at the checkpoint")
		}},
		{"slot GSeq", func(f *Machine) {
			for slot, u := range f.iq {
				if u != nil {
					f.slotGSeq[slot]++
					return
				}
			}
			t.Fatal("empty issue queue at the checkpoint")
		}},
		{"predictor counter", func(f *Machine) {
			c := field(f.pred, "counters").Index(7)
			c.SetUint(c.Uint() ^ 1)
		}},
		{"register value", func(f *Machine) { f.rf.SetValue(100, f.rf.Value(100)^1) }},
		{"free-list order", func(f *Machine) {
			r, ok := f.freeList.Alloc()
			if !ok || f.freeList.Len() == 0 {
				t.Fatal("free list too short to reorder")
			}
			f.freeList.Free(r)
		}},
		{"fetch-queue item", func(f *Machine) {
			for _, th := range f.threads {
				if th.fetchQ.Len() > 0 {
					th.fetchQ.AtRef(0).pc++
					return
				}
			}
			t.Fatal("no fetch-queue item at the checkpoint")
		}},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			f := Fork(cp)
			if !f.Matches(cp) {
				t.Fatal("a fresh fork does not match its checkpoint")
			}
			mu.mutate(f)
			if f.Matches(cp) {
				t.Fatalf("Matches missed a changed %s", mu.name)
			}
		})
	}
}

// Matches runs inside campaign hooks on every worker: it must not allocate.
func TestMatchesAllocatesNothing(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	for _, v := range snapshotVariants {
		t.Run(v.name, func(t *testing.T) {
			cps := warmupCheckpoints(t, smallCacheConfig(v.merge), v.mode, p, 3000, 250)
			cp := cps[len(cps)-1]
			f := Fork(cp)
			if allocs := testing.AllocsPerRun(20, func() {
				if !f.Matches(cp) {
					t.Fatal("fork does not match its checkpoint")
				}
			}); allocs != 0 {
				t.Fatalf("Matches allocates %v times per call", allocs)
			}
		})
	}
}

// Forks of one shared checkpoint run at once, each comparing itself against
// the shared warmup checkpoints as it goes: under the race detector this
// shows that tag pages, calendar buckets, slabs and every other forked
// structure are copied, never shared mutably, and that Matches only reads.
func TestConcurrentForksMatchSharedCheckpoints(t *testing.T) {
	const n, interval, workers = 3000, 250, 4
	p := prog.MustBenchmark("gcc")
	cps := warmupCheckpoints(t, DefaultConfig(), ModeBlackJack, p, n, interval)
	byCycle := map[int64]*Checkpoint{}
	for _, cp := range cps {
		byCycle[cp.Cycle()] = cp
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var opts []Option
			if w%2 == 1 {
				opts = append(opts, WithInjector(oneShot(uint64(50*w))))
			}
			f := Fork(cps[0], opts...)
			matched := 0
			f.RunWithCheckpoints(n, interval, func(live *Machine) {
				if ref := byCycle[live.Cycle()]; ref != nil && live.Matches(ref) {
					matched++
				}
			})
			if w%2 == 0 && matched != len(cps)-1 {
				t.Errorf("fault-free fork %d matched %d of %d later checkpoints", w, matched, len(cps)-1)
			}
		}(w)
	}
	wg.Wait()
}

// Stop ends RunWithCheckpoints after the hook that calls it.
func TestStopEndsRunAfterHook(t *testing.T) {
	m, err := New(smallCacheConfig(false), ModeBlackJack, prog.MustBenchmark("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	st := m.RunWithCheckpoints(3000, 100, func(live *Machine) {
		hooks++
		if live.Cycle() == 300 {
			live.Stop()
		}
	})
	if st.Cycles != 300 || hooks != 3 {
		t.Fatalf("run ended at cycle %d after %d hooks, want cycle 300 after 3", st.Cycles, hooks)
	}
	if st := m.RunWithCheckpoints(3000, 0, nil); st.Cycles <= 300 {
		t.Fatalf("a later run without Stop ended at cycle %d", st.Cycles)
	}
}

// BenchmarkMatches times one full compare of a fork against its checkpoint
// on the Table 1 machine (the worst case: every structure is equal).
func BenchmarkMatches(b *testing.B) {
	m, err := New(DefaultConfig(), ModeBlackJack, prog.MustBenchmark("gcc"))
	if err != nil {
		b.Fatal(err)
	}
	var cp *Checkpoint
	m.RunWithCheckpoints(6000, 2500, func(live *Machine) { cp = live.Snapshot() })
	f := Fork(cp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Matches(cp) {
			b.Fatal(fmt.Sprint("fork does not match at cycle ", cp.Cycle()))
		}
	}
}
