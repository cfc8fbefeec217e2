package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/runcache"
)

// This file wires the content-addressable run cache (internal/runcache)
// into the simulation entry points. The canonical identity of a run is
// built here — one schema shared by single runs, standalone injections and
// campaign cells — and the same encoder keys the campaign journal (see
// OpenCampaignJournal), replacing the ad-hoc string folding that used to
// live next to journal.KeyHash.
//
// Soundness rests on determinism: given equal (program content, machine
// config, mode, budget, fault site, execution plan) the simulator produces
// bit-identical outcomes, so serving a stored outcome is indistinguishable
// from re-executing — the property the -cache-verify sampling mode
// (trust-but-verify, diffcheck-style) re-checks continuously.

// programFingerprint hashes a program's semantic content — code, data
// size, initial data — so two programs sharing a Name (e.g. reseeded
// benchmark variants) never alias in the cache. The name itself stays out
// of the fingerprint; it rides along as a separate identity part.
func programFingerprint(p *isa.Program) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(p.Code)))
	for _, in := range p.Code {
		word(uint64(in.Op))
		word(uint64(in.Rd))
		word(uint64(in.Rs1))
		word(uint64(in.Rs2))
		word(uint64(in.Imm))
	}
	word(uint64(p.DataSize))
	word(uint64(len(p.Init)))
	for _, v := range p.Init {
		word(v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cacheableSingle reports whether a single-machine run may use the cache:
// a tracer or metrics registry wants live pipeline internals (occupancy
// histograms, event streams) that a cached outcome cannot replay.
func (c Config) cacheableSingle() bool {
	return c.Cache != nil && c.Trace == nil && c.Metrics == nil
}

// coreIdentity encodes the parameters every cached run shares: program
// content, machine configuration, mode and instruction budget.
func (c Config) coreIdentity(kind string, p *isa.Program) *runcache.Identity {
	return runcache.NewIdentity().
		Add("kind", kind).
		Add("program", p.Name).
		Add("prog_fp", programFingerprint(p)).
		AddJSON("machine", c.Machine).
		Addf("mode", "%v", c.Mode).
		Addf("n", "%d", c.MaxInstructions)
}

// runIdentity is the identity of one fault-free (possibly sampled) run.
func runIdentity(cfg Config, p *isa.Program, skip int) *runcache.Identity {
	id := cfg.coreIdentity("run", p)
	if skip > 0 {
		id.Addf("skip", "%d", skip)
	}
	return id
}

// injectIdentity is the identity of one standalone (multi-)fault
// injection: the core plus the execution-plan parameters that shape the
// recorded outcome and every injected site.
func injectIdentity(cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions) *runcache.Identity {
	id := cfg.coreIdentity("inject", p).
		Addf("split", "%v", opts.SplitPayload).
		Addf("ff", "%v", cfg.FastForward)
	for _, s := range sites {
		id.AddJSON("site", s)
	}
	return id
}

// campaignCellIdentity is the identity of one campaign cell: the core plus
// the campaign execution plan (checkpoint interval, fast-forward and its
// warmup lead — cached records carry path-choice figures like ForkCycle
// and FFSkipped, which those parameters determine) and the cell's site.
// The surrounding site list is deliberately NOT part of a cell's identity:
// path choice depends only on the cell's own site and the plan cadence, so
// equal cells are shared across campaigns and sweeps — the incremental-
// sweep property (a one-parameter edit re-executes only its own column).
func campaignCellIdentity(base *runcache.Identity, site fault.Site) *runcache.Identity {
	return runcache.NewIdentity(base.Parts()...).AddJSON("site", site)
}

// campaignBaseIdentity is the shared prefix of every cell identity of one
// campaign.
func campaignBaseIdentity(cfg Config, p *isa.Program, opts InjectOptions) *runcache.Identity {
	id := cfg.coreIdentity("campaign", p).
		Addf("split", "%v", opts.SplitPayload).
		Addf("ckpt", "%d", cfg.CheckpointInterval).
		Addf("ff", "%v", cfg.FastForward)
	if cfg.FastForward {
		id.Addf("ffw", "%d", cfg.ffWarmup())
	}
	return id
}

// jsonCacheEqual compares two outcomes through their canonical JSON
// encoding — the representation the cache stores — so verification
// tolerates unexported or non-serialized state and flags exactly the
// divergences a cache consumer could observe.
func jsonCacheEqual(a, b any) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// cached serves one single-run entry point (a *Result run or a standalone
// injection) through the cache: hit → stored outcome (with sampled
// trust-but-verify recomputation), miss → live run then fill. Cache I/O
// failures degrade to live execution; they never fail the run.
func cached[T any](cfg Config, id *runcache.Identity, live func() (T, error)) (T, error) {
	var stored T
	hit := cfg.Cache.Get(id, &stored)
	if hit && !runcache.ShouldVerify(id, cfg.CacheVerify) {
		return stored, nil
	}
	res, err := live()
	if err != nil {
		var zero T
		return zero, err
	}
	if hit {
		diverged := !jsonCacheEqual(res, stored)
		cfg.Cache.CountVerify(diverged)
		if !diverged {
			return res, nil
		}
	}
	_ = cfg.Cache.Put(id, res) // fill, or heal a diverged entry; best-effort
	return res, nil
}

// cacheSanitizedRecord strips the wall-clock-dependent fields from a run
// record before it enters the cache: retry counts describe one process's
// scheduling luck, not the run's deterministic outcome. Quarantined
// records (Failure != nil) must never reach the cache at all — callers
// gate on that before putting.
func cacheSanitizedRecord(rec runRecord) runRecord {
	rec.Retries = 0
	rec.Failure = nil
	return rec
}
