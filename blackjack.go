// Package blackjack is a cycle-level reproduction of "BlackJack: Hard Error
// Detection with Redundant Threads on SMT" (Schuchman & Vijaykumar, DSN
// 2007).
//
// BlackJack extends SRT — simultaneous redundant threading, a soft-error
// technique — so that the redundant leading/trailing threads running on one
// SMT core also detect hard (permanent) errors. The key mechanism is
// safe-shuffle: the leading thread's co-issued instruction packets are
// shuffled, using dependence information the leading thread has already
// computed, so that every trailing instruction is fetched to a different
// frontend way and issued to a different backend way than its leading copy
// (spatial diversity). Commit-time checks validate the borrowed dependence
// and program-order information so a corrupted borrow cannot hide an error.
//
// The package exposes:
//
//   - four machine configurations (ModeSingle, ModeSRT, ModeBlackJackNS,
//     ModeBlackJack) over a detailed out-of-order SMT core;
//   - the 16-benchmark synthetic workload suite standing in for the paper's
//     SPEC2000 setup, plus a builder and generator for custom workloads;
//   - hard-fault injection with outcome classification against a functional
//     golden model;
//   - experiment harnesses regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	res, err := blackjack.Run(blackjack.DefaultConfig(blackjack.ModeBlackJack, 100_000), "gzip")
//	fmt.Printf("coverage %.1f%%\n", 100*res.Stats.Coverage())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package blackjack

import (
	"io"

	"blackjack/internal/experiments"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

// Machine configuration and modes.
type (
	// Mode selects the machine configuration (single / SRT / BlackJack-NS /
	// BlackJack).
	Mode = pipeline.Mode
	// MachineConfig holds every core parameter (Table 1 defaults via
	// DefaultMachineConfig).
	MachineConfig = pipeline.Config
)

// The four machine configurations of the paper's evaluation.
const (
	ModeSingle      = pipeline.ModeSingle
	ModeSRT         = pipeline.ModeSRT
	ModeBlackJackNS = pipeline.ModeBlackJackNS
	ModeBlackJack   = pipeline.ModeBlackJack
)

// DefaultMachineConfig returns the paper's Table 1 machine.
func DefaultMachineConfig() MachineConfig { return pipeline.DefaultConfig() }

// ParseMode resolves a mode name ("single", "srt", "blackjack-ns",
// "blackjack").
func ParseMode(s string) (Mode, error) { return pipeline.ParseMode(s) }

// Simulation entry points.
type (
	// Config describes one simulation (machine + mode + instruction budget).
	Config = sim.Config
	// Result is one simulation's outcome, validated against the golden
	// model.
	Result = sim.Result
)

// DefaultConfig returns a Table 1 machine in the given mode with the given
// leading-thread instruction budget.
func DefaultConfig(mode Mode, maxInstructions int) Config {
	return sim.Default(mode, maxInstructions)
}

// Run executes one built-in benchmark.
func Run(cfg Config, benchmark string) (*Result, error) { return sim.Run(cfg, benchmark) }

// RunProgram executes a custom program.
func RunProgram(cfg Config, p *Program) (*Result, error) { return sim.RunProgram(cfg, p) }

// DefaultFFWarmup is the default fast-forward warmup lead in committed
// instructions (see Config.FFWarmup).
const DefaultFFWarmup = sim.DefaultFFWarmup

// RunSampled executes a benchmark with a functional fast-forward: the
// golden ISA emulator retires the first skip instructions, and the
// cycle-accurate pipeline simulates only the rest from that architectural
// state. Output verification stays whole-program; Stats.Cycles covers the
// simulated window only.
func RunSampled(cfg Config, benchmark string, skip int) (*Result, error) {
	return sim.RunSampled(cfg, benchmark, skip)
}

// RunAllModes runs a benchmark under all four modes from one config (its
// Mode is ignored), fanning out across cfg.Parallel workers. A config with
// Trace or Metrics attached is refused.
func RunAllModes(cfg Config, benchmark string) (map[Mode]*Result, error) {
	return sim.RunAllModes(cfg, benchmark)
}

// Workloads.
type (
	// Program is an executable workload.
	Program = isa.Program
	// WorkloadProfile parameterizes the synthetic workload generator.
	WorkloadProfile = prog.Profile
	// Builder assembles hand-written programs.
	Builder = prog.Builder
)

// Benchmarks returns the built-in suite's names in the paper's Figure 7
// order (increasing IPC).
func Benchmarks() []string { return prog.BenchmarkNames() }

// BenchmarkProfile returns the named built-in workload profile.
func BenchmarkProfile(name string) (WorkloadProfile, error) { return prog.ProfileByName(name) }

// GenerateWorkload builds a synthetic program from a profile.
func GenerateWorkload(p WorkloadProfile) (*Program, error) { return prog.Generate(p) }

// BenchmarkProgram generates the named built-in workload.
func BenchmarkProgram(name string) (*Program, error) { return prog.Benchmark(name) }

// NewBuilder starts a hand-written program.
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// Fault injection.
type (
	// FaultSite is one hard fault bound to a physical resource.
	FaultSite = fault.Site
	// InjectionResult classifies one fault run.
	InjectionResult = sim.InjectionResult
	// InjectOptions tune a fault run.
	InjectOptions = sim.InjectOptions
	// CampaignSummary aggregates a multi-site campaign.
	CampaignSummary = sim.CampaignSummary
)

// Fault site classes.
const (
	FaultFrontendWay  = fault.FrontendWay
	FaultBackendWay   = fault.BackendWay
	FaultPayloadRAM   = fault.PayloadRAM
	FaultRegisterFile = fault.RegisterFile
)

// Fault-kind taxonomy.
type (
	// FaultKind selects a fault's temporal/spatial model: always-on
	// permanent, one-shot transient, duty-cycled intermittent, multi-bit
	// stuck-at/flip patterns, or control-flow errors corrupting branch
	// redirects.
	FaultKind = fault.Kind
)

// The fault kinds a FaultSite can model.
const (
	FaultKindPermanent    = fault.KindPermanent
	FaultKindTransient    = fault.KindTransient
	FaultKindIntermittent = fault.KindIntermittent
	FaultKindMultiBit     = fault.KindMultiBit
)

// ParseFaultKind resolves a fault-kind name ("permanent", "transient",
// "intermittent", "multi-bit", "control-flow").
func ParseFaultKind(s string) (FaultKind, error) { return fault.ParseKind(s) }

// Fault run outcomes.
const (
	OutcomeDetected = sim.OutcomeDetected
	OutcomeSilent   = sim.OutcomeSilent
)

// Resilience tunes per-run isolation, wall-clock budgets and retries of
// campaign entry points. Attach via Config.Resilience; Config.JournalPath
// makes a campaign crash-resumable.
type Resilience = sim.Resilience

// Inject runs a benchmark with one hard fault installed, as a one-site
// campaign: the result is the site's row of any campaign under cfg. A
// Trace or Metrics attached to cfg observes that campaign's one live run;
// such an injection refuses JournalPath and Resilience.Retries.
func Inject(cfg Config, benchmark string, site FaultSite, opts InjectOptions) (InjectionResult, error) {
	return sim.Inject(cfg, benchmark, site, opts)
}

// InjectProgram is Inject over a custom program.
func InjectProgram(cfg Config, p *Program, site FaultSite, opts InjectOptions) (InjectionResult, error) {
	return sim.InjectProgram(cfg, p, site, opts)
}

// Campaign injects every site into the same benchmark and summarizes.
func Campaign(cfg Config, benchmark string, sites []FaultSite, opts InjectOptions) (*CampaignSummary, error) {
	return sim.Campaign(cfg, benchmark, sites, opts)
}

// FormatInjectionResult renders one campaign row exactly as bjfault prints
// it (site, outcome, activations, first detection event).
func FormatInjectionResult(r InjectionResult) string { return sim.FormatInjectionResult(r) }

// WriteCampaignTable writes a campaign's outcome table — header, one row
// per site, summary — byte-identically to bjfault's stdout, so batch and
// served executions of the same work are diffable.
func WriteCampaignTable(w io.Writer, mode Mode, benchmark string, sum *CampaignSummary) error {
	return sim.WriteCampaignTable(w, mode, benchmark, sum)
}

// StandardFaultSites returns the canonical campaign for a machine: every
// frontend and backend way, payload slots and registers.
func StandardFaultSites(machine MachineConfig) []FaultSite { return sim.StandardSites(machine) }

// LatentFaultSites returns the 16-site latent-defect campaign: always-on
// faults plus late-arming transients and trigger-gated faults that may never
// activate — the workload shape Config.CheckpointInterval accelerates most.
func LatentFaultSites(machine MachineConfig) []FaultSite { return sim.LatentSites(machine) }

// FaultSitesForKind returns the canonical campaign for one fault kind — the
// per-kind axis the bjfault/bjfuzz -fault-kind flags and the Ext-I
// experiment iterate over.
func FaultSitesForKind(machine MachineConfig, kind FaultKind) ([]FaultSite, error) {
	return sim.SitesForKind(machine, kind)
}

// Observability.
type (
	// Tracer records structured pipeline events into a fixed ring and exports
	// Chrome trace-event JSON (chrome://tracing, Perfetto). Attach via
	// Config.Trace.
	Tracer = obs.Tracer
	// Metrics is a counter/gauge/histogram registry with deterministic text
	// and JSON export. Attach via Config.Metrics.
	Metrics = obs.Registry
)

// NewTracer returns a tracer holding the last capacity events (<= 0 uses the
// 65536-event default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteTraceFile writes a tracer's Chrome trace JSON to path.
func WriteTraceFile(path string, t *Tracer) error { return obs.WriteTraceFile(path, t) }

// Experiments.
type (
	// ExperimentOptions configure a full-suite experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentSuite holds all benchmarks' results under all modes and
	// derives every paper figure.
	ExperimentSuite = experiments.Suite
)

// DefaultExperimentOptions returns the standard experiment setup (all 16
// benchmarks, 300k instructions per run).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// RunExperimentSuite runs every benchmark under every mode.
func RunExperimentSuite(opts ExperimentOptions) (*ExperimentSuite, error) {
	return experiments.RunSuite(opts)
}
