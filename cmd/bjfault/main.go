// Command bjfault runs fault injection campaigns: it installs one fault per
// run (a frontend way, backend way, payload-RAM slot or physical register),
// executes the workload redundantly, and classifies each outcome as
// detected, silent corruption, benign, or wedged. -fault-kind selects the
// fault model: always-on permanent faults (default), one-shot transients,
// duty-cycled intermittents, multi-bit stuck-at/flip patterns, or
// control-flow errors corrupting branch redirects.
//
// Usage:
//
//	bjfault -bench gcc -mode blackjack -n 30000             # standard campaign
//	bjfault -bench gcc -mode srt -site frontend -way 1      # one site
//	bjfault -bench gzip -mode blackjack -compare            # srt vs blackjack
//	bjfault -bench gcc -n 30000 -site-index 12              # replay one campaign run
//	bjfault -bench gcc -journal gcc.journal                 # crash-resumable campaign
//	bjfault -bench gcc -fault-kind intermittent             # duty-cycled campaign
//	bjfault -site backend -fault-kind intermittent -duty 32/8@50
//	bjfault -site backend -fault-kind multi-bit -mask 0xFF00
//
// A campaign run with -journal survives crashes and signals: re-running the
// same command with -resume skips every completed injection. SIGINT and
// SIGTERM are both graceful shutdowns — in-flight runs drain, completed
// records are flushed, and the exit status is 130 with a resume hint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blackjack"
	"blackjack/internal/cli"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark name")
		mode    = flag.String("mode", "blackjack", "machine mode")
		n       = flag.Int("n", 30_000, "committed-instruction budget per run")
		site    = flag.String("site", "", "single site class: frontend, backend, payload, register (empty: standard campaign)")
		way     = flag.Int("way", 0, "way index for frontend/backend sites")
		unit    = flag.String("unit", "intALU", "unit class for backend sites: intALU, intMul, intDiv, fpALU, fpMul, mem")
		slot    = flag.Int("slot", 0, "issue-queue slot for payload sites")
		reg     = flag.Int("reg", 200, "physical register for register sites")
		split   = flag.Bool("split", true, "model split per-thread payload RAMs")
		kindStr = flag.String("fault-kind", "permanent", "fault model: permanent, transient, intermittent, multi-bit, control-flow (selects the campaign site list and modifies -site runs)")
		sitesel = flag.String("sites", "standard", "campaign site list: standard (canonical per -fault-kind) or latent (the 16-site latent-defect campaign; permanent faults only)")
		duty    = flag.String("duty", "", "intermittent duty cycle as period/on[@prob], e.g. 32/8@50 (default 64/16@75; -site runs)")
		mask    = flag.String("mask", "", "bit mask overriding the site's default, hex or decimal (e.g. 0xFF00; -site runs)")
		compare = flag.Bool("compare", false, "run the campaign under srt AND blackjack and compare")

		siteIndex = flag.Int("site-index", -1, "replay run i of the standard campaign site list (the index quarantine repro commands print)")

		journal    = cli.JournalFlags()
		execution  = cli.ExecutionFlags()
		resilience = cli.ResilienceFlags()
		out        = cli.OutputFlags()
		cache      = cli.CacheFlags()
	)
	cli.ProfileFlags()
	cli.Parse("bjfault")
	defer cli.Cleanup()

	// A flag the chosen mode does not read would be silently ignored, so it
	// is refused.
	const every = "bench mode n split fault-kind checkpoint-interval ff ff-warmup isolate retries run-timeout cache-dir cache-verify cpuprofile memprofile"
	switch {
	case *siteIndex >= 0:
		cli.RefuseUnread("-site-index", every+" site-index sites metrics-out trace-out")
	case *site != "":
		cli.RefuseUnread("-site", every+" site way unit slot reg duty mask metrics-out trace-out")
	default:
		cli.RefuseUnread("campaign", every+" sites compare journal resume parallel metrics-out")
	}

	m, err := blackjack.ParseMode(*mode)
	if err != nil {
		cli.Fatal(err)
	}
	kind, err := blackjack.ParseFaultKind(*kindStr)
	if err != nil {
		cli.Fatal(err)
	}
	// SIGTERM (the plain `kill` default, and what most supervisors send)
	// takes the same drain-and-resume path as SIGINT: stop new runs, flush
	// journal and metrics, exit 130 with a resume hint.
	ctx, stop := cli.SignalContext()
	defer stop()
	cfg := blackjack.DefaultConfig(m, *n)
	execution.Fill(&cfg)
	cfg.Ctx = ctx
	cfg.Resilience = resilience.Settings()
	opts := blackjack.InjectOptions{SplitPayload: *split}
	// A campaign cell (a single injection is a one-site campaign) whose
	// full identity — program content, machine, mode, budget, site,
	// execution plan — matches a stored entry is served from disk instead
	// of re-simulated.
	cfg.Cache, cfg.CacheVerify = cache.Open()
	defer cache.Report()

	var otr *blackjack.Tracer
	if out.Trace != "" {
		otr = blackjack.NewTracer(0)
		cfg.Trace = otr
	}
	// Campaigns merge their per-worker registries into metrics before
	// writeMetrics runs.
	var metrics *blackjack.Metrics
	writeMetrics := func() {}
	if out.Metrics != "" {
		metrics = blackjack.NewMetrics()
		cfg.Metrics = metrics
		writeMetrics = func() {
			out.WriteMetrics(metrics, cache)
			fmt.Printf("metrics written to %s\n", out.Metrics)
		}
	}

	sites, err := selectSites(cfg.Machine, kind, *sitesel)
	if err != nil {
		cli.Fatal(err)
	}
	// A standalone injection is a one-site campaign: -site-index replays
	// run i of the campaign over sites, -site builds its site from flags. A
	// trace or registry observes the run that campaign makes.
	if *siteIndex >= 0 || *site != "" {
		var s blackjack.FaultSite
		switch {
		case *siteIndex >= len(sites):
			cli.Fatal(fmt.Errorf("-site-index %d out of range [0,%d)", *siteIndex, len(sites)))
		case *siteIndex >= 0:
			s = sites[*siteIndex]
		default:
			if s, err = buildSite(*site, *way, *unit, *slot, *reg); err == nil {
				s, err = applyKind(s, kind, *duty, *mask)
			}
			if err != nil {
				cli.Fatal(err)
			}
		}
		r, err := blackjack.Inject(cfg, *bench, s, opts)
		if err != nil {
			cli.Fatal(err)
		}
		printOne(r)
		if otr != nil {
			if err := blackjack.WriteTraceFile(out.Trace, otr); err != nil {
				cli.Fatal(err)
			}
		}
		writeMetrics()
		return
	}

	if *compare {
		// Each mode's campaign has a distinct identity and needs its own
		// journal.
		for _, mm := range []blackjack.Mode{blackjack.ModeSRT, blackjack.ModeBlackJack} {
			c := cfg
			c.Mode = mm
			runCampaign(c, *bench, sites, opts, journal.Prepare("-"+mm.String()), writeMetrics)
		}
	} else {
		runCampaign(cfg, *bench, sites, opts, journal.Prepare(""), writeMetrics)
	}
	writeMetrics()
}

func runCampaign(cfg blackjack.Config, bench string, sites []blackjack.FaultSite, opts blackjack.InjectOptions, journal string, writeMetrics func()) {
	cfg.JournalPath = journal
	sum, err := blackjack.Campaign(cfg, bench, sites, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && journal != "" {
			// Partial results are durable: flush metrics before Fatal
			// exits 130 pointing at -resume.
			writeMetrics()
		}
		cli.Fatal(err)
	}
	if err := blackjack.WriteCampaignTable(os.Stdout, cfg.Mode, bench, sum); err != nil {
		cli.Fatal(err)
	}
	// Operational annotations go to stderr so stdout tables stay
	// byte-identical across fresh, resumed and retried sessions.
	if sum.Resumed > 0 {
		cli.Logf("%d runs resumed from journal, %d executed", sum.Resumed, len(sum.Results)-sum.Resumed)
	}
	if sum.CacheHits > 0 {
		cli.Logf("%d runs served from cache, %d executed", sum.CacheHits, len(sum.Results)-sum.Resumed-sum.CacheHits)
	}
	if sum.Retried > 0 {
		cli.Logf("%d retries", sum.Retried)
	}
	for _, f := range sum.Quarantined {
		cli.Logf("quarantined run %d (%s after %d attempts): %s\n  repro: %s",
			f.Index, f.Reason, f.Attempts, f.Detail, f.Repro)
	}
}

func printOne(r blackjack.InjectionResult) {
	fmt.Println(blackjack.FormatInjectionResult(r))
}

// selectSites resolves the -sites flag: the canonical per-kind campaign, or
// the 16-site latent-defect campaign (permanent faults only — the latent
// scenario models hard defects by construction).
func selectSites(machine blackjack.MachineConfig, kind blackjack.FaultKind, sel string) ([]blackjack.FaultSite, error) {
	switch sel {
	case "standard":
		return blackjack.FaultSitesForKind(machine, kind)
	case "latent":
		if kind != blackjack.FaultKindPermanent {
			return nil, fmt.Errorf("-sites latent models permanent latent defects (got -fault-kind %v)", kind)
		}
		return blackjack.LatentFaultSites(machine), nil
	default:
		return nil, fmt.Errorf("unknown -sites %q (want standard or latent)", sel)
	}
}

func buildSite(class string, way int, unit string, slot, reg int) (blackjack.FaultSite, error) {
	units := map[string]isa.UnitClass{
		"intALU": isa.UnitIntALU, "intMul": isa.UnitIntMul, "intDiv": isa.UnitIntDiv,
		"fpALU": isa.UnitFPALU, "fpMul": isa.UnitFPMul, "mem": isa.UnitMem,
	}
	switch class {
	case "frontend":
		return blackjack.FaultSite{Class: blackjack.FaultFrontendWay, Way: way, Field: fault.FieldRs2}, nil
	case "backend":
		u, ok := units[unit]
		if !ok {
			return blackjack.FaultSite{}, fmt.Errorf("unknown unit %q", unit)
		}
		return blackjack.FaultSite{Class: blackjack.FaultBackendWay, Unit: u, Way: way, BitMask: 1 << 9}, nil
	case "payload":
		return blackjack.FaultSite{Class: blackjack.FaultPayloadRAM, Slot: slot, Field: fault.FieldImm, BitMask: 2}, nil
	case "register":
		return blackjack.FaultSite{Class: blackjack.FaultRegisterFile, Reg: rename.PhysReg(reg), BitMask: 1 << 5}, nil
	default:
		return blackjack.FaultSite{}, fmt.Errorf("unknown site class %q", class)
	}
}

// applyKind reshapes a base site for the selected fault model: -duty
// configures the intermittent window, -mask overrides the default bit
// pattern. Contradictory combinations are rejected by FaultSite.Validate at
// campaign admission with a precise reason.
func applyKind(s blackjack.FaultSite, kind blackjack.FaultKind, duty, mask string) (blackjack.FaultSite, error) {
	s.Kind = kind
	switch kind {
	case blackjack.FaultKindTransient:
		s.FireAt = 20 // one shot on an early eligible use
	case blackjack.FaultKindIntermittent:
		s.DutyPeriod, s.DutyOn, s.DutyProb = 64, 16, 75
		if duty != "" {
			var err error
			if s.DutyPeriod, s.DutyOn, s.DutyProb, err = parseDuty(duty); err != nil {
				return s, err
			}
		}
	case blackjack.FaultKindMultiBit:
		// Mirror the canonical multi-bit campaign's decode shape: frontend
		// and payload corruption widens the immediate field.
		if s.Class == blackjack.FaultFrontendWay || s.Class == blackjack.FaultPayloadRAM {
			s.Field = fault.FieldImm
		}
		s.BitMask = 0x3C
	}
	if duty != "" && kind != blackjack.FaultKindIntermittent {
		return s, fmt.Errorf("-duty requires -fault-kind intermittent")
	}
	if mask != "" {
		v, err := strconv.ParseUint(mask, 0, 64)
		if err != nil {
			return s, fmt.Errorf("bad -mask %q: %w", mask, err)
		}
		s.BitMask = v
	}
	return s, nil
}

// parseDuty parses period/on[@prob].
func parseDuty(s string) (period, on uint64, prob uint8, err error) {
	spec := s
	prob = 100
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		p, perr := strconv.ParseUint(spec[at+1:], 10, 8)
		if perr != nil || p > 100 {
			return 0, 0, 0, fmt.Errorf("bad -duty probability in %q (want 0-100)", s)
		}
		prob = uint8(p)
		spec = spec[:at]
	}
	slash := strings.IndexByte(spec, '/')
	if slash < 0 {
		return 0, 0, 0, fmt.Errorf("bad -duty %q (want period/on[@prob])", s)
	}
	if period, err = strconv.ParseUint(spec[:slash], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad -duty period in %q", s)
	}
	if on, err = strconv.ParseUint(spec[slash+1:], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad -duty on-window in %q", s)
	}
	return period, on, prob, nil
}
