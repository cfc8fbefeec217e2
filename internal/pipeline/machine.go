package pipeline

import (
	"context"
	"fmt"

	"blackjack/internal/area"
	"blackjack/internal/bpred"
	"blackjack/internal/cache"
	"blackjack/internal/core"
	"blackjack/internal/detect"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/queues"
	"blackjack/internal/redundancy"
	"blackjack/internal/rename"
)

// Injector corrupts values flowing through specific physical resources,
// modeling hard (permanent, possibly state-dependent) defects. A nil injector
// means a fault-free machine. Implementations live in internal/fault.
type Injector interface {
	// Watched lists every resource at which some hook can change a value or
	// count a use. At any other resource every hook must be the identity
	// with no side effect, so the machine calls hooks only on watched
	// resources. The list is read once, when the injector is installed.
	Watched() []fault.Resource
	// CorruptDecode corrupts the decoded form of an instruction processed on
	// frontend way w.
	CorruptDecode(way int, in isa.Inst) isa.Inst
	// CorruptPayload corrupts the instruction payload read from issue-queue
	// slot `slot` by thread `thread` at issue.
	CorruptPayload(slot, thread int, in isa.Inst) isa.Inst
	// CorruptResult corrupts the result computed on backend way (class, way).
	CorruptResult(class isa.UnitClass, way int, in isa.Inst, v uint64) uint64
	// CorruptAddr corrupts an effective address computed on backend way
	// (class, way).
	CorruptAddr(class isa.UnitClass, way int, addr uint64) uint64
	// CorruptBranch corrupts a branch direction computed on backend way
	// (class, way).
	CorruptBranch(class isa.UnitClass, way int, taken bool) bool
	// CorruptBranchTarget corrupts a branch target computed on backend way
	// (class, way) — the control-flow-error model. The corrupted target feeds
	// the redirect points and commit-time branch validation.
	CorruptBranchTarget(class isa.UnitClass, way int, target int) int
	// CorruptRegRead corrupts a value read from physical register p.
	CorruptRegRead(p rename.PhysReg, v uint64) uint64
}

// Machine is one simulated SMT core running one program in one mode.
type Machine struct {
	cfg  Config
	mode Mode
	prog *isa.Program
	mem  *isa.Memory

	rf       *rename.RegFile
	freeList *rename.FreeList
	threads  []*thread

	// The unified issue queue, indexed by payload RAM slot: the queued uop
	// and its GSeq (nil and 0 when the slot is free). Select orders the
	// ready slots by slotGSeq.
	iq         []*UOp
	slotGSeq   []uint64
	iqFree     []uint64 // payload RAM slots: bit set = slot free
	leadInIQ   int      // leading-thread uops in iq
	unitFreeAt [isa.NumUnitClasses][]int64

	// Wakeup machinery (see wakeup.go): one ready bit per payload slot, the
	// per-physical-register waiter lists, the wakeup calendar (a power-of-two
	// ring of buckets indexed by ready cycle & calMask; the ring spans more
	// than the worst-case execution latency, so a bucket is always drained
	// before its index is reused), and — in DTQ modes — the count of
	// not-yet-ready members per trailing packet (the gang-wakeup condition as
	// a counter instead of a queue scan).
	readyMask     []uint64
	regWaiters    [][]*UOp
	cal           [][]*UOp
	calMask       int64
	packetPending *pendTable

	// doneCal is the completion calendar: issued uops filed by DoneCycle &
	// calMask (the wakeup calendar's horizon bounds every latency), each
	// bucket in GSeq order, so completions resolve in (DoneCycle, GSeq)
	// order.
	doneCal [][]*UOp

	pred   *bpred.Predictor
	dcache *cache.Hierarchy

	// SRT coupling.
	boq    *redundancy.BOQ
	lvq    *redundancy.LVQ
	sb     *redundancy.StoreBuffer
	stream *redundancy.Stream

	// BlackJack.
	dtq      *core.DTQ
	shuffler *core.Shuffler
	packets  *queues.Ring[core.Packet]
	dr       *core.DoubleRename
	oc       *core.OrderChecker

	sink       *detect.Sink
	inj        Injector
	watch      watchSet // the injector's watched resources (see initWatch)
	areaModel  area.Model
	tracer     *Tracer
	shuffleObs ShuffleObserver

	// Observability (internal/obs). All nil when disabled: the hot-path
	// hooks are single nil checks, and like the tracer none of this state
	// survives a Snapshot/Fork (trace state is not machine state). The
	// histogram handles are resolved once in initObs so per-cycle sampling
	// never touches the registry maps.
	otr     *obs.Tracer
	metrics *obs.Registry
	hIQ     *obs.Histogram
	hDTQ    *obs.Histogram
	hBOQ    *obs.Histogram
	hLVQ    *obs.Histogram

	cycle int64
	gseq  uint64

	// Free lists and slabs for the per-instruction hot-path records, and the
	// select scratch list. Strictly per-machine state — no globals, no sync
	// — so machines stay independent under the parallel harness. A record,
	// recycled or handed out again by a rewound slab, is zeroed and filled
	// in place at its next allocation site (newUOp, newEntry).
	uopFree    []*UOp
	entryFree  []*core.Entry
	uopSlab    slab[UOp]
	entrySlab  slab[core.Entry]
	selScratch []int
	// copies is the machine's copy scratch for snapshots of it and forks
	// into it (see copyScratch).
	copies copyScratch

	cap         uint64 // leading-commit target for this run (machine-local)
	leadStopped bool

	// archBase is the committed-instruction count already covered by the
	// functional prefix when the machine was built with NewFromArch; 0 for a
	// machine starting at reset. Run budgets and Stats.Committed are in
	// whole-program terms, so both convert through it.
	archBase uint64

	// stopOnDetect makes the run loop stop at the first detection event
	// (see WithStopOnDetect).
	stopOnDetect bool
	// stop ends the current run after the checkpoint hook that set it (see
	// Stop).
	stop bool

	// Dispatch-time reservations of commit-side redundancy queues. A leading
	// load/store may only DISPATCH with an LVQ / store-buffer slot reserved:
	// otherwise either a committed-but-unqueueable instruction at the head
	// of the leading active list blocks the DTQ head packet, or (if gated at
	// issue instead) unissuable loads fill the unified issue queue — and
	// both block the trailing thread, the only thing that drains those
	// queues (the same cyclic-dependency shape as the DTQ dispatch gate).
	lvqInFlight int
	sbInFlight  int

	// Run-loop progress tracking. These live on the machine (not as Run
	// locals) so a forked copy resumes livelock detection exactly where the
	// snapshot left it — a cold run and a fork must deadlock, or not, at the
	// same cycle.
	lastCommitTotal   uint64
	lastProgressCycle int64

	// runCtx, when set, bounds the run's wall-clock budget: the run loop
	// polls it every ctxCheckMask+1 cycles and stops with Stats.Interrupted
	// when it is done. Like the tracer/metrics it is harness state, not
	// machine state — Snapshot/Fork drop it.
	runCtx context.Context

	stats    Stats
	storeSig uint64
}

// Option configures a Machine.
type Option func(*Machine)

// WithInjector installs a hard-fault injector.
func WithInjector(inj Injector) Option { return func(m *Machine) { m.inj = inj } }

// WithSink installs a shared detection sink (a fresh one is created
// otherwise).
func WithSink(s *detect.Sink) Option { return func(m *Machine) { m.sink = s } }

// ShuffleObserver watches every safe-shuffle invocation: the committed DTQ
// packet consumed (in) and the trailing packets produced (out), in the cycle
// they were shuffled. Both slices — and the entries and slot arrays they
// reference — are owned by the machine and are only valid for the duration of
// the call; observers must copy anything they retain. Verification harnesses
// (internal/diffcheck) use this to check structural invariants (permutation,
// spatial diversity, DTQ drain order) during execution.
type ShuffleObserver func(cycle int64, in []*core.Entry, out []core.Packet)

// WithShuffleObserver attaches a safe-shuffle observer. It only fires in
// DTQ-bearing modes (BlackJack, BlackJack-NS); a nil observer costs nothing.
func WithShuffleObserver(obs ShuffleObserver) Option {
	return func(m *Machine) { m.shuffleObs = obs }
}

// WithObsTracer attaches a structured event tracer (internal/obs): every
// stage transition, shuffle, and squash is recorded as an obs.Event. A nil
// tracer costs one pointer check per hook.
func WithObsTracer(t *obs.Tracer) Option { return func(m *Machine) { m.otr = t } }

// WithMetrics attaches a metrics registry: the machine samples queue
// occupancy (issue queue, DTQ, BOQ, LVQ) into registry histograms every
// cycle. Final Stats counters are exported separately via Stats.Export.
// The registry must not be shared with a concurrently running machine.
func WithMetrics(r *obs.Registry) Option { return func(m *Machine) { m.metrics = r } }

// ctxCheckMask makes the run loop poll its context every 4096 cycles:
// cheap enough to be invisible in the hot loop, fine-grained enough that a
// wall-clock budget lands within microseconds of the deadline.
const ctxCheckMask = 4095

// WithRunContext bounds the run with a context: when ctx is cancelled or
// its deadline passes, the run loop stops at the next poll (every 4096
// cycles) and sets Stats.Interrupted instead of running to completion. The
// resilience layer uses this as the per-run wall-clock budget — the only
// way to stop a livelocked simulation that the cycle backstop has not
// caught yet. A nil ctx (the default) disables the polling entirely.
func WithRunContext(ctx context.Context) Option { return func(m *Machine) { m.runCtx = ctx } }

// Occupancy-histogram bucket bounds, sized to the Table 1 queues.
var (
	iqOccBounds    = []float64{0, 4, 8, 16, 24, 32, 48, 64}
	queueOccBounds = []float64{0, 2, 4, 8, 16, 32, 64, 128}
)

// initObs resolves the occupancy-histogram handles on the attached
// registry. Called at the end of New and after Fork applies options, when
// the machine's queues exist.
func (m *Machine) initObs() {
	if m.metrics == nil {
		return
	}
	m.hIQ = m.metrics.Histogram("pipeline.iq.occupancy", iqOccBounds)
	if m.dtq != nil {
		m.hDTQ = m.metrics.Histogram("pipeline.dtq.depth", queueOccBounds)
	}
	if m.boq != nil {
		m.hBOQ = m.metrics.Histogram("pipeline.boq.depth", queueOccBounds)
	}
	if m.lvq != nil {
		m.hLVQ = m.metrics.Histogram("pipeline.lvq.depth", queueOccBounds)
	}
}

// sampleDepths records the cycle's queue occupancies. Only called with
// metrics attached.
func (m *Machine) sampleDepths() {
	m.hIQ.Observe(float64(m.iqLen()))
	if m.hDTQ != nil {
		m.hDTQ.Observe(float64(m.dtq.Len()))
	}
	if m.hBOQ != nil {
		m.hBOQ.Observe(float64(m.boq.Len()))
	}
	if m.hLVQ != nil {
		m.hLVQ.Observe(float64(m.lvq.Len()))
	}
}

// New builds a machine ready to run prog in the given mode.
func New(cfg Config, mode Mode, prog *isa.Program, opts ...Option) (*Machine, error) {
	m := &Machine{}
	if err := m.Init(cfg, mode, prog, opts...); err != nil {
		return nil, err
	}
	return m, nil
}

// Init builds into m the machine New(cfg, mode, prog, opts...) returns,
// reusing the storage of whatever machine m held before: its records,
// memory and cache pages, tables and queues. New is Init on a zero Machine,
// so a rebuilt machine runs exactly like a new one; nothing of the earlier
// run survives, its options included. A campaign worker rebuilds one
// machine for run after run instead of allocating each from nothing. On an
// error m is left unchanged.
func (m *Machine) Init(cfg Config, mode Mode, prog *isa.Program, opts ...Option) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if prog == nil {
		return isa.ErrNoProgram
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	// The L1 ports are the memory backend ways: unit arbitration already
	// bounds cache accesses per cycle, so the cache model must never reject.
	cfg.Cache.L1Ports = cfg.Units[isa.UnitMem]

	st := m.storage()
	*m = Machine{cfg: cfg, mode: mode, prog: prog, areaModel: area.Default()}
	m.adoptPools(&st)
	m.rf = orNew(st.rf)
	m.rf.Init(cfg.PhysRegs)
	m.pred = orNew(st.pred)
	m.pred.Init(cfg.Bpred)
	m.dcache = orNew(st.dcache)
	m.dcache.Init(cfg.Cache)
	m.iq = resize(st.iq, cfg.IssueQueue)
	clear(m.iq)
	m.slotGSeq = resize(st.slotGSeq, cfg.IssueQueue)
	clear(m.slotGSeq)
	m.iqFree = resize(st.iqFree, (cfg.IssueQueue+63)/64)
	clear(m.iqFree)
	for i := 0; i < cfg.IssueQueue; i++ {
		m.iqFree[i>>6] |= 1 << (uint(i) & 63)
	}
	m.readyMask = resize(st.readyMask, (cfg.IssueQueue+63)/64)
	clear(m.readyMask)
	m.initWakeup(&st)
	if mode.UsesDTQ() {
		m.packetPending = orNew(st.packetPending)
		m.packetPending.reset()
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.sink == nil {
		m.sink = &detect.Sink{}
	}
	m.mem = orNew(st.mem)
	prog.ResetMemory(m.mem)

	for cl := isa.UnitClass(0); cl < isa.NumUnitClasses; cl++ {
		m.unitFreeAt[cl] = resize(st.unitFreeAt[cl], cfg.Units[cl])
		clear(m.unitFreeAt[cl])
	}

	nThreads := 1
	if mode.Redundant() {
		nThreads = 2
	}
	// Reserve the low physical registers for the initial architectural
	// mappings of each context; the rest form the shared free pool.
	reserved := nThreads * isa.NumArchRegs
	m.freeList = orNew(st.freeList)
	m.freeList.Init(rename.PhysReg(reserved), cfg.PhysRegs-reserved)
	m.threads = resize(st.threads, nThreads)
	for i, t := range m.threads {
		t = orNew(t)
		t.init(i, &cfg)
		for a := 0; a < isa.NumArchRegs; a++ {
			t.rmap.Set(a, rename.PhysReg(i*isa.NumArchRegs+a))
		}
		m.threads[i] = t
	}

	if mode.Redundant() {
		m.lvq = orNew(st.lvq)
		m.lvq.Init(cfg.LVQ)
		m.sb = orNew(st.sb)
		m.sb.Init(cfg.StoreBuffer)
		if mode == ModeSRT {
			m.boq = orNew(st.boq)
			m.boq.Init(cfg.BOQ)
			m.stream = orNew(st.stream)
			m.stream.Init(cfg.Stream)
		}
		if mode.UsesDTQ() {
			m.dtq = orNew(st.dtq)
			m.dtq.Init(cfg.DTQ)
			m.shuffler = orNew(st.shuffler)
			m.shuffler.CopyFrom(&core.Shuffler{
				Width:    cfg.FetchWidth,
				Units:    cfg.Units,
				Disabled: mode == ModeBlackJackNS,
			})
			m.packets = orNew(st.packets)
			m.packets.Init(cfg.PacketQueue)
			m.dr = orNew(st.dr)
			m.dr.Init(cfg.PhysRegs)
			m.oc = orNew(st.oc)
			m.oc.Init()
			// Seed the double-rename and second (program-order) rename
			// tables with the initial architectural state: leading initial
			// physical a maps to trailing initial physical a.
			lead, trail := m.threads[leadThread], m.threads[trailThread]
			for a := 0; a < isa.NumArchRegs; a++ {
				m.dr.Seed(lead.rmap.Get(a), trail.rmap.Get(a))
				m.oc.Seed(isa.Reg(a), trail.rmap.Get(a))
			}
		}
	}
	m.initObs()
	m.initWatch()
	return nil
}

// storage hands every record back, rewinding the record slabs and
// returning the trailing packets' slot arrays to the shuffler, and returns
// a shallow copy of m: the buffers Init and copyFrom rebuild in place. m
// must be overwritten next; its records are no longer its own.
func (m *Machine) storage() Machine {
	if m.packets != nil && m.shuffler != nil {
		for i := 0; i < m.packets.Len(); i++ {
			m.shuffler.RecycleSlots(m.packets.AtRef(i).Slots)
		}
	}
	m.uopSlab.rewind()
	m.entrySlab.rewind()
	return *m
}

// adoptPools installs st's record pools (emptied), copy translation maps,
// select scratch and watch-bit words.
func (m *Machine) adoptPools(st *Machine) {
	m.uopSlab, m.entrySlab = st.uopSlab, st.entrySlab
	m.uopFree, m.entryFree = st.uopFree[:0], st.entryFree[:0]
	m.selScratch = st.selScratch[:0]
	m.copies = st.copies
	m.watch = st.watch
}

// watchSet holds one bit per resource the injector watches, per hook and
// major coordinate: the unit class for backend hooks, the reading thread for
// payload reads, 0 for decode and register reads. The minor coordinate is
// the way, payload slot or physical register.
type watchSet [fault.NumHooks][isa.NumUnitClasses][]uint64

// initWatch derives the watch bits from the injector's Watched list. Called
// at the end of Init and after Fork applies options; like the injector they
// are harness state, so a checkpoint does not carry them. The bit words are
// cleared in place and kept for the next build.
func (m *Machine) initWatch() {
	for h := range m.watch {
		for major := range m.watch[h] {
			clear(m.watch[h][major])
		}
	}
	if m.inj == nil {
		return
	}
	for _, r := range m.inj.Watched() {
		switch r.Hook {
		case fault.HookDecode:
			m.watch.set(r.Hook, 0, r.Way)
		case fault.HookPayload:
			for t := range m.threads {
				if r.Thread == fault.AnyThread || r.Thread == t {
					m.watch.set(r.Hook, t, r.Slot)
				}
			}
		case fault.HookRegRead:
			m.watch.set(r.Hook, 0, int(r.Reg))
		default:
			m.watch.set(r.Hook, int(r.Unit), r.Way)
		}
	}
}

func (w *watchSet) set(h fault.Hook, major, minor int) {
	if major >= int(isa.NumUnitClasses) {
		return // a unit class the machine never presents
	}
	b := &w[h][major]
	for len(*b) <= minor>>6 {
		*b = append(*b, 0)
	}
	(*b)[minor>>6] |= 1 << (uint(minor) & 63)
}

// watches reports whether the injector watches cell (major, minor) of hook
// h. Every hook call sits behind it: an unwatched call is the identity.
func (m *Machine) watches(h fault.Hook, major, minor int) bool {
	b := m.watch[h][major]
	w := uint(minor) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(minor)&63)) != 0
}

// Mode returns the machine's mode.
func (m *Machine) Mode() Mode { return m.mode }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() int64 { return m.cycle }

// Sink returns the detection sink.
func (m *Machine) Sink() *detect.Sink { return m.sink }

// readMem returns the 8-byte word at the (clamped) address.
func (m *Machine) readMem(addr uint64) uint64 { return m.mem.Load(m.clamp(addr)) }

// releaseStore applies an architecturally final store to memory and extends
// the output signature.
func (m *Machine) releaseStore(addr, v uint64) {
	a := m.clamp(addr)
	m.mem.Store(a, v)
	m.storeSig = isa.ChainStoreSig(m.storeSig, a, v)
	m.stats.ReleasedStores++
}

// clamp maps an effective address onto the memory image.
func (m *Machine) clamp(addr uint64) uint64 { return isa.ClampAddr(addr, m.mem.Size()) }

// areaPairCoverage applies the area model to one pair's diversity outcome.
func (m *Machine) areaPairCoverage(fe, be bool) float64 {
	return m.areaModel.PairCoverage(fe, be)
}

// Tick advances the machine by one cycle. Stages run in reverse pipeline
// order so same-cycle structural backpressure is modeled without intra-cycle
// iteration.
func (m *Machine) Tick() {
	m.cycle++
	m.resolveCompletions()
	m.commitStage()
	m.capCheck()
	m.shuffleStage()
	m.issueStage()
	m.dispatchStage()
	m.fetchStage()
	if m.metrics != nil {
		m.sampleDepths()
	}
	m.stats.Cycles = m.cycle
}

// Run executes until the run is complete: the leading (or single) thread has
// committed maxLeading instructions or halted, and — in redundant modes — the
// trailing thread has committed every instruction the leading thread did. It
// returns the machine statistics. A cycle backstop (Config.MaxCycles) guards
// against livelock; hitting it sets Stats.Deadlocked.
func (m *Machine) Run(maxLeading int) *Stats {
	return m.RunWithCheckpoints(maxLeading, 0, nil)
}

// RunWithCheckpoints runs like Run, additionally invoking hook every interval
// cycles (after the cycle's Tick and livelock check) so callers can take
// periodic Snapshots, or compare against them with Matches. A hook that
// calls Stop ends the run there. An interval <= 0 or nil hook disables
// checkpointing — the loop is then exactly Run. The cycle limit and the
// progress backstop use absolute cycle numbers, so a machine forked from a
// checkpoint and a cold run continue through identical loop decisions.
func (m *Machine) RunWithCheckpoints(maxLeading int, interval int64, hook func(*Machine)) *Stats {
	// maxLeading is in whole-program terms; an arch-seeded machine already
	// covered archBase instructions functionally, so the machine-local target
	// is the remainder. A prefix that consumed the whole budget leaves
	// nothing to run.
	target := int64(maxLeading) - int64(m.archBase)
	if target < 0 {
		target = 0
	}
	if m.archBase > 0 && target == 0 {
		for _, t := range m.threads {
			t.halted = true
			t.fetchStopped = true
		}
		m.leadStopped = true
	}
	m.cap = uint64(target)
	m.stop = false
	limit := m.cfg.MaxCycles
	if limit == 0 {
		limit = int64(maxLeading)*300 + 1_000_000
	}
	for !m.runDone() {
		m.Tick()
		if c := m.totalCommitted(); c != m.lastCommitTotal {
			m.lastCommitTotal = c
			m.lastProgressCycle = m.cycle
		}
		if m.cycle >= limit || m.cycle-m.lastProgressCycle > 1_000_000 {
			m.stats.Deadlocked = true
			break
		}
		if m.stopOnDetect && m.sink.Total() > 0 {
			m.stats.StoppedOnDetect = true
			break
		}
		if m.runCtx != nil && m.cycle&ctxCheckMask == 0 && m.runCtx.Err() != nil {
			m.stats.Interrupted = true
			break
		}
		if interval > 0 && hook != nil && m.cycle%interval == 0 {
			hook(m)
			if m.stop {
				break
			}
		}
	}
	m.finalizeStats()
	return &m.stats
}

// Stop ends the RunWithCheckpoints in progress once the hook calling it
// returns. The run returns finalized statistics of the partial run; the
// caller decides what they stand for (a campaign run that reconverged with
// its golden warmup is served the warmup's result).
func (m *Machine) Stop() { m.stop = true }

func (m *Machine) totalCommitted() uint64 {
	n := uint64(0)
	for _, t := range m.threads {
		n += t.committed
	}
	return n
}

func (m *Machine) runDone() bool {
	lead := m.threads[leadThread]
	leadDone := lead.halted || (m.cap > 0 && lead.committed >= m.cap)
	if !m.mode.Redundant() {
		return leadDone
	}
	trail := m.threads[trailThread]
	return leadDone && m.leadStopped && trail.committed >= lead.committed && trail.drained()
}

// capCheck stops the leading thread once it has committed the run's
// instruction budget (or its halt), squashing its in-flight wrong-path tail
// so the trailing thread's stream is exactly the committed stream.
func (m *Machine) capCheck() {
	lead := m.threads[leadThread]
	if m.leadStopped {
		return
	}
	if (m.cap > 0 && lead.committed >= m.cap) || lead.halted {
		if m.mode.Redundant() {
			m.squash(lead, lead.nextSeqCommitted(), -1)
		}
		lead.fetchStopped = true
		lead.halted = true
		m.leadStopped = true
	}
}

// nextSeqCommitted returns the Seq of the last committed instruction (squash
// keeps everything at or below it).
func (t *thread) nextSeqCommitted() uint64 {
	// Seq numbering starts at 1 (nextSeq is pre-incremented at dispatch), so
	// after k commits the last committed Seq is exactly k.
	return t.committed
}

// squash removes every uop of thread t with Seq > afterSeq, undoing renaming
// and freeing resources, and redirects fetch to newPC (-1 leaves the fetch PC
// untouched and merely clears the fetch buffer).
func (m *Machine) squash(t *thread, afterSeq uint64, newPC int) {
	// Walk the active list from the tail backwards, undoing rename mappings
	// in reverse allocation order.
	for v := t.rob.tail; v > t.rob.head; v-- {
		u := t.rob.at(v - 1)
		if u == nil || u.Seq <= afterSeq {
			break
		}
		if u.PDest != rename.None {
			t.rmap.Set(int(u.Inst.Rd), u.POld)
			m.freeList.Free(u.PDest)
		}
		switch {
		case u.Inst.IsBranch():
			t.nextBranchSeq--
		case u.Inst.IsLoad():
			t.nextLoadSeq--
			if m.mode.Redundant() && t.id == leadThread {
				m.lvqInFlight--
			}
		case u.Inst.IsStore():
			t.nextStoreSeq--
			if m.mode.Redundant() && t.id == leadThread {
				m.sbInFlight--
			}
		}
		if u.Inst.IsMem() {
			t.lsq.clearAt(u.VirtLSQ)
			t.lsq.shrinkTail(u.VirtLSQ)
		}
		if u.InIQ {
			m.leaveIQ(u)
			m.unwireWakeup(u)
		}
		u.Squashed = true
		m.trace(TraceSquash, u)
		m.stats.Squashed++
		t.rob.clearAt(v - 1)
		t.rob.shrinkTail(v - 1)
		// A squashed uop not in the completion calendar has no remaining
		// references; issued ones are recycled when resolveCompletions
		// reaches them.
		if !u.InEvents {
			m.recycleUOp(u)
		}
	}
	t.nextSeq = afterSeq
	t.fetchQ.Reset()
	t.fetchStopped = false
	if newPC >= 0 {
		t.fetchPC = newPC
		if newPC >= len(m.prog.Code) {
			t.fetchStopped = true
		}
	}
	// Drop squashed entries from the DTQ in BlackJack modes.
	if m.dtq != nil && t.id == leadThread {
		m.dtq.SquashYounger(afterSeq)
	}
}

// slabChunk is the number of records a slab allocates at once.
const slabChunk = 64

// slab hands out records carved from chunks: one heap allocation per chunk
// instead of one per record. It keeps every chunk, so a rewound slab hands
// the same records out again with no allocation; their contents are then
// stale, and every allocation site fills a record in full.
type slab[T any] struct {
	chunks [][]T
	next   int // chunks[next:] are untouched since the last rewind
	rest   []T // unused tail of the chunk in use
}

// alloc returns the next unused record.
func (s *slab[T]) alloc() *T {
	if len(s.rest) == 0 {
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, slabChunk))
		}
		s.rest = s.chunks[s.next]
		s.next++
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

// reserve makes sure n more records can be handed out with at most the one
// allocation of a chunk sized to the shortfall, so a copied machine's
// records sit in as few chunks as its live population needs.
func (s *slab[T]) reserve(n int) {
	free := len(s.rest)
	for _, c := range s.chunks[s.next:] {
		free += len(c)
	}
	if free < n {
		s.chunks = append(s.chunks, make([]T, n-free))
	}
}

// rewind takes every record back: the slab hands them out again from the
// first. The caller guarantees no structure still references one.
func (s *slab[T]) rewind() { s.next, s.rest = 0, nil }

// allocUOp takes a UOp from the machine's free list (or its slab). The
// record may hold a dead uop's fields; newUOp zeroes it before filling it.
func (m *Machine) allocUOp() *UOp {
	n := len(m.uopFree)
	if n == 0 {
		return m.uopSlab.alloc()
	}
	u := m.uopFree[n-1]
	m.uopFree = m.uopFree[:n-1]
	return u
}

// recycleUOp returns a dead uop to the free list. Callers guarantee the uop
// has left every machine structure: the active list and LSQ (popped or
// cleared), the issue queue (issue or squash) and the completion calendar
// (InEvents false).
func (m *Machine) recycleUOp(u *UOp) {
	m.uopFree = append(m.uopFree, u)
}

// allocEntry takes a DTQ entry from the free list (or the slab); newEntry
// zeroes it before filling it.
func (m *Machine) allocEntry() *core.Entry {
	n := len(m.entryFree)
	if n == 0 {
		return m.entrySlab.alloc()
	}
	e := m.entryFree[n-1]
	m.entryFree = m.entryFree[:n-1]
	return e
}

// recycleEntry returns a consumed DTQ entry (trailing fetch copied its
// fields) to the free list.
func (m *Machine) recycleEntry(e *core.Entry) {
	m.entryFree = append(m.entryFree, e)
}

// internalError records a simulator invariant violation. It panics: such
// states indicate pipeline bugs, never program or fault behaviour.
func (m *Machine) internalError(format string, args ...any) {
	panic(fmt.Sprintf("pipeline: cycle %d: %s", m.cycle, fmt.Sprintf(format, args...)))
}
