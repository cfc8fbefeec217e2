package diffcheck

import (
	"fmt"
	"strings"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/rename"
	"blackjack/internal/sim"
)

// MatrixCell is one fault-kind × fault-class × pipeline-structure
// combination of the coverage matrix, aggregated over several concrete sites
// and stressor programs.
type MatrixCell struct {
	Kind      fault.Kind
	Class     fault.Class
	Structure string

	Runs      int // injection runs performed
	Activated int // runs whose fault corrupted at least one value
	Detected  int // activated runs flagged by a redundancy checker
	Benign    int // activated runs whose output still matched the oracle
	Silent    int // activated runs with silent output corruption (failures)
	Wedged    int // runs that stopped making progress (observable hang)
	Inactive  int // runs whose fault never activated

	LatencySum  int64 // summed first-activation -> first-detection distances
	LatencyRuns int
}

// Name returns "class/structure", prefixed with the fault kind for the
// non-permanent axes (the permanent cells keep their legacy names).
func (c *MatrixCell) Name() string {
	if c.Kind == fault.KindPermanent {
		return fmt.Sprintf("%v/%s", c.Class, c.Structure)
	}
	return fmt.Sprintf("%v/%v/%s", c.Kind, c.Class, c.Structure)
}

// MeanLatency returns the mean detection latency in cycles (0 when no run
// measured one).
func (c *MatrixCell) MeanLatency() float64 {
	if c.LatencyRuns == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.LatencyRuns)
}

// add counts one injection run into the cell.
func (c *MatrixCell) add(r sim.InjectionResult) {
	c.Runs++
	if r.Activations == 0 {
		c.Inactive++
		return
	}
	c.Activated++
	switch r.Outcome {
	case sim.OutcomeDetected:
		c.Detected++
		if r.DetectionLatency >= 0 {
			c.LatencySum += r.DetectionLatency
			c.LatencyRuns++
		}
	case sim.OutcomeBenign:
		c.Benign++
	case sim.OutcomeSilent:
		c.Silent++
	case sim.OutcomeWedged:
		c.Wedged++
	}
}

// OK reports whether the cell meets the coverage contract: the fault class
// was actually exercised on this structure, and every activated run was
// detected, explicitly benign, or an observable wedge — never silent.
func (c *MatrixCell) OK() bool { return c.Activated > 0 && c.Silent == 0 }

// Matrix is the fault-coverage matrix of one machine mode.
type Matrix struct {
	Mode  pipeline.Mode
	Cells []MatrixCell
}

// OK reports whether every cell meets the coverage contract.
func (m *Matrix) OK() bool { return len(m.Problems()) == 0 }

// Problems lists the cells violating the contract.
func (m *Matrix) Problems() []string {
	var out []string
	for i := range m.Cells {
		c := &m.Cells[i]
		switch {
		case c.Activated == 0:
			out = append(out, fmt.Sprintf("%s: never exercised (%d runs, all inactive)", c.Name(), c.Runs))
		case c.Silent > 0:
			out = append(out, fmt.Sprintf("%s: %d silent corruptions in %d activated runs", c.Name(), c.Silent, c.Activated))
		}
	}
	return out
}

// String renders the matrix as a table.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-coverage matrix (%v)\n", m.Mode)
	fmt.Fprintf(&b, "%-38s %5s %5s %5s %5s %5s %5s %9s  %s\n",
		"kind/class/structure", "runs", "activ", "det", "benig", "silent", "wedge", "lat(cyc)", "status")
	for i := range m.Cells {
		c := &m.Cells[i]
		status := "ok"
		if !c.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-38s %5d %5d %5d %5d %5d %5d %9.1f  %s\n",
			c.Name(), c.Runs, c.Activated, c.Detected, c.Benign, c.Silent, c.Wedged, c.MeanLatency(), status)
	}
	return b.String()
}

// matrixCellSpec pairs a cell with its concrete sites and stressor shapes.
type matrixCellSpec struct {
	kind      fault.Kind
	class     fault.Class
	structure string
	sites     []fault.Site
	shapes    []prog.StressShape
}

// matrixSpecs enumerates every fault class × pipeline structure combination
// the machine has: each frontend way (all decode fields), the backend ways
// of every unit class (value, plus branch-direction on the intALU ways and
// address corruption on the memory ways), the issue-queue payload RAM, and
// the physical register file.
func matrixSpecs(cfg pipeline.Config) []matrixCellSpec {
	var specs []matrixCellSpec

	allFields := []fault.DecodeField{fault.FieldRs1, fault.FieldRs2, fault.FieldRd, fault.FieldImm, fault.FieldOp}
	for w := 0; w < cfg.FetchWidth; w++ {
		var sites []fault.Site
		for _, f := range allFields {
			sites = append(sites, fault.Site{Class: fault.FrontendWay, Way: w, Field: f, BitMask: 4})
		}
		specs = append(specs, matrixCellSpec{
			class:     fault.FrontendWay,
			structure: fmt.Sprintf("fetch-way-%d", w),
			sites:     sites,
			shapes:    []prog.StressShape{prog.StressMixed, prog.StressBranch},
		})
	}

	classShapes := map[isa.UnitClass]prog.StressShape{
		isa.UnitIntALU: prog.StressIntALU,
		isa.UnitIntMul: prog.StressIntMul,
		isa.UnitIntDiv: prog.StressIntDiv,
		isa.UnitFPALU:  prog.StressFPALU,
		isa.UnitFPMul:  prog.StressFPMul,
		isa.UnitMem:    prog.StressMem,
	}
	for cls := isa.UnitClass(0); cls < isa.NumUnitClasses; cls++ {
		var sites []fault.Site
		for w := 0; w < cfg.Units[cls]; w++ {
			sites = append(sites, fault.Site{Class: fault.BackendWay, Unit: cls, Way: w, BitMask: 1 << uint(4+w)})
		}
		switch cls {
		case isa.UnitIntALU:
			sites = append(sites, fault.Site{Class: fault.BackendWay, Unit: cls, Way: 0, FlipBranch: true})
		case isa.UnitMem:
			sites = append(sites, fault.Site{Class: fault.BackendWay, Unit: cls, Way: 0, CorruptAddr: true, BitMask: 1})
		}
		specs = append(specs, matrixCellSpec{
			class:     fault.BackendWay,
			structure: fmt.Sprintf("%v-ways", cls),
			sites:     sites,
			shapes:    []prog.StressShape{classShapes[cls], prog.StressMixed},
		})
	}

	var payloadSites []fault.Site
	for _, slot := range []int{0, 1, cfg.IssueQueue / 2, cfg.IssueQueue - 1} {
		payloadSites = append(payloadSites,
			fault.Site{Class: fault.PayloadRAM, Slot: slot, Field: fault.FieldImm, BitMask: 2},
			fault.Site{Class: fault.PayloadRAM, Slot: slot, Field: fault.FieldOp},
		)
	}
	specs = append(specs, matrixCellSpec{
		class:     fault.PayloadRAM,
		structure: "issue-queue",
		sites:     payloadSites,
		shapes:    []prog.StressShape{prog.StressMixed, prog.StressIntALU},
	})

	var regSites []fault.Site
	for _, r := range []rename.PhysReg{5, 40, 70, 130, 200} {
		if int(r) < cfg.PhysRegs {
			regSites = append(regSites, fault.Site{Class: fault.RegisterFile, Reg: r, BitMask: 1 << 9})
		}
	}
	specs = append(specs, matrixCellSpec{
		class:     fault.RegisterFile,
		structure: "phys-regfile",
		sites:     regSites,
		shapes:    []prog.StressShape{prog.StressMixed, prog.StressMem},
	})
	return specs
}

// kindSpecs derives the coverage cells for one non-permanent fault kind:
// one cell per pipeline structure (frontend ways, backend ways, payload RAM,
// register file — control-flow errors live only on the branch-executing
// backend ways), with the sites re-shaped to the kind's firing model. The
// permanent axis keeps its exhaustive per-structure enumeration in
// matrixSpecs; these cells prove each fault model is exercised and covered
// on every structure class without multiplying the full grid.
func kindSpecs(cfg pipeline.Config, kind fault.Kind) []matrixCellSpec {
	if kind == fault.KindControlFlow {
		return []matrixCellSpec{{
			kind: kind, class: fault.BackendWay, structure: "branch-ways",
			sites:  sim.ControlFlowSites(cfg),
			shapes: []prog.StressShape{prog.StressBranch, prog.StressMixed},
		}}
	}

	// reshape re-casts a permanent site as the requested kind; i
	// disambiguates the multi-bit flavor (stuck-at vs wide flip).
	reshape := func(s fault.Site, i int) fault.Site {
		switch kind {
		case fault.KindTransient:
			s.Transient = true
			s.FireAt = 5
		case fault.KindIntermittent:
			s.Kind = fault.KindIntermittent
			s.DutyPeriod = 8
			s.DutyOn = 4
			s.DutyProb = 75
		case fault.KindMultiBit:
			s.Kind = fault.KindMultiBit
			switch {
			case s.Class == fault.FrontendWay || s.Class == fault.PayloadRAM:
				s.Field = fault.FieldImm
				s.BitMask = 0x3C
			case i%2 == 0:
				s.BitMask = 0
				s.StuckMask = 0xFF << 8
				s.StuckValue = 0xA5 << 8
			default:
				s.BitMask = 0xF << 16
			}
		}
		return s
	}

	// Store-heavy shapes for the timing-sensitive kinds: a one-shot or
	// duty-cycled corruption must reach a comparison point to be observable.
	shapes := []prog.StressShape{prog.StressMem, prog.StressMixed}
	if kind == fault.KindMultiBit {
		shapes = []prog.StressShape{prog.StressMixed, prog.StressIntALU}
	}

	var fe []fault.Site
	for w := 0; w < cfg.FetchWidth && w < 2; w++ {
		fe = append(fe, reshape(fault.Site{Class: fault.FrontendWay, Way: w, Field: fault.FieldRs2, BitMask: 4}, w))
	}
	var be []fault.Site
	if kind == fault.KindTransient {
		// One-shot coverage is defined over faults that reach an output
		// comparison point (the paper's soft-error claim): a single corrupted
		// ALU result can die in a register the output comparison never sees,
		// and a corrupted leading load VALUE is forwarded to the trailing
		// thread through the LVQ, so both threads agree on it (the paper's
		// input-replication caveat — load data is assumed ECC-protected).
		// Effective addresses and branch directions are computed
		// independently per thread and checked (LVQ address check, store
		// buffer, BOQ), so these sites are detected or squash-masked to
		// benign, never silent.
		for w := 0; w < cfg.Units[isa.UnitMem]; w++ {
			be = append(be, reshape(fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: w, CorruptAddr: true, BitMask: 1 << uint(w)}, w))
		}
		be = append(be, reshape(fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, FlipBranch: true}, len(be)))
	} else {
		for w := 0; w < cfg.Units[isa.UnitIntALU]; w++ {
			be = append(be, reshape(fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: w, BitMask: 1 << uint(4+w)}, w))
		}
		be = append(be, reshape(fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, BitMask: 1 << 8}, len(be)))
	}
	var pay []fault.Site
	for i, slot := range []int{0, cfg.IssueQueue / 2} {
		pay = append(pay, reshape(fault.Site{Class: fault.PayloadRAM, Slot: slot, Field: fault.FieldImm, BitMask: 2}, i))
	}
	var reg []fault.Site
	// Low physical registers are recycled constantly, so even a one-shot
	// fault reliably sees its FireAt-th read within the budget.
	for i, r := range []rename.PhysReg{5, 40} {
		if int(r) < cfg.PhysRegs {
			reg = append(reg, reshape(fault.Site{Class: fault.RegisterFile, Reg: r, BitMask: 1 << 9}, i))
		}
	}
	return []matrixCellSpec{
		{kind: kind, class: fault.FrontendWay, structure: "fetch-ways", sites: fe, shapes: shapes},
		{kind: kind, class: fault.BackendWay, structure: "exec-ways", sites: be, shapes: shapes},
		{kind: kind, class: fault.PayloadRAM, structure: "issue-queue", sites: pay, shapes: shapes},
		{kind: kind, class: fault.RegisterFile, structure: "phys-regfile", sites: reg, shapes: shapes},
	}
}

// MatrixOptions configures a coverage-matrix run: each (cell, stressor
// program) pair runs as one campaign under Config (Mode must be redundant).
// Parallel spreads the cells over workers; Metrics gets every campaign's
// counters. FastForward and Resilience.Isolate are refused: the matrix
// could not count their runs exactly.
type MatrixOptions struct {
	sim.Config
	Seed uint64 // stressor-program seed base
	// Kinds restricts the fault-kind axis (bjfuzz -fault-kind); nil runs
	// every kind: permanent, transient, intermittent, multi-bit and
	// control-flow.
	Kinds []fault.Kind
}

// CoverageMatrix injects every cell's sites into that cell's stressor
// programs and classifies outcomes, asserting the paper's coverage story
// end-to-end: every fault class on every pipeline structure is exercised and
// either detected or explicitly benign. Results are deterministic in
// (Machine, Mode, MaxInstructions, Seed) at every worker count and
// checkpoint interval.
func CoverageMatrix(opts MatrixOptions) (*Matrix, error) {
	switch {
	case opts.FastForward:
		return nil, fmt.Errorf("diffcheck: coverage matrix refuses Config.FastForward: a run stopped at its first detection can count a wedge as detected")
	case opts.Resilience.Isolate:
		return nil, fmt.Errorf("diffcheck: coverage matrix refuses Config.Resilience.Isolate: a quarantined run would count as inactive")
	case !opts.Mode.Redundant():
		return nil, fmt.Errorf("diffcheck: coverage matrix needs a redundant mode, got %v", opts.Mode)
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = fault.Kinds()
	}
	var specs []matrixCellSpec
	for _, k := range kinds {
		if k == fault.KindPermanent {
			specs = append(specs, matrixSpecs(opts.Machine)...)
		} else {
			specs = append(specs, kindSpecs(opts.Machine, k)...)
		}
	}

	// One campaign per (cell, stressor program) pair. A cell's 2–8 sites
	// are too few to keep the workers busy, so the cells fan out and each
	// runs its campaigns on one worker.
	cells, regs, err := parallel.MapWorkerStateCtx(opts.Ctx, opts.Parallel, len(specs), obs.NewRegistry, func(reg *obs.Registry, ci int) (MatrixCell, error) {
		spec := specs[ci]
		c := MatrixCell{Kind: spec.kind, Class: spec.class, Structure: spec.structure}
		cfg := opts.Config
		cfg.Parallel = 1
		if cfg.Metrics != nil {
			cfg.Metrics = reg // merged below: counters add, in any order
		}
		for si, shape := range spec.shapes {
			p, err := prog.StressProgram(prog.DeriveSeed(opts.Seed, uint64(ci*8+si)), shape)
			if err != nil {
				return c, err
			}
			sum, err := sim.CampaignProgram(cfg, p, spec.sites, sim.InjectOptions{})
			if err != nil {
				return c, err
			}
			for _, r := range sum.Results {
				c.add(r)
			}
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		if opts.Metrics != nil {
			if err := opts.Metrics.Merge(reg); err != nil {
				return nil, err
			}
		}
	}
	return &Matrix{Mode: opts.Mode, Cells: cells}, nil
}
