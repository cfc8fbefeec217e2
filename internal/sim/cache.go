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

// This file wires the content-addressable run store (internal/runcache)
// into the simulation entry points. The canonical identity of a run is
// built here — one schema shared by single runs and campaign cells (a
// standalone injection is a one-site campaign; see campaignIdentity) — and
// cachedRun is the one store tier every entry point goes through. The
// store is also how an interrupted campaign resumes: cachedRun stores a
// live cell before the campaign reports it.
//
// Soundness rests on determinism: given equal (program content, machine
// config, mode, budget, fault site, execution plan) the simulator produces
// bit-identical outcomes, so serving a stored outcome is indistinguishable
// from re-executing — the property the -cache-verify sampling mode
// (trust-but-verify, diffcheck-style) re-checks continuously.

// programFingerprint hashes a program's semantic content — code, data
// size, initial data — so two programs sharing a Name (e.g. reseeded
// benchmark variants) never alias in the cache. The name itself stays out
// of the fingerprint; it rides along as a separate identity part. The
// words stream through a small fixed buffer, so hashing a large data
// image costs one hash call per buffer, not per word, and no memory sized
// to the program.
func programFingerprint(p *isa.Program) string {
	h := sha256.New()
	var buf [1024]byte
	n := 0
	word := func(v uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
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
	h.Write(buf[:n])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// identity encodes the parameters every run shares: kind, program name,
// machine configuration, mode and instruction budget. Structs go through
// AddJSON: fmt's %+v would call lossy String methods and alias distinct
// configurations.
func (c Config) identity(kind, program string) *runcache.Identity {
	return runcache.NewIdentity().
		Add("kind", kind).
		Add("program", program).
		AddJSON("machine", c.Machine).
		Addf("mode", "%v", c.Mode).
		Addf("n", "%d", c.MaxInstructions)
}

// runIdentity is the identity of one fault-free (possibly sampled) run.
func runIdentity(cfg Config, p *isa.Program, skip int) *runcache.Identity {
	id := cfg.identity("run", p.Name).Add("prog_fp", programFingerprint(p))
	if skip > 0 {
		id.Addf("skip", "%d", skip)
	}
	return id
}

// campaignIdentity is the identity prefix of one campaign: the shared
// parameters plus the campaign execution plan (checkpoint interval,
// fast-forward and its warmup lead — records carry path-choice figures
// like ForkCycle and FFSkipped, which those parameters determine). Each
// cell key extends it with the program content and the cell's own window
// (campaignRunner.serve, through addWindow). The surrounding site list is
// deliberately NOT part of a cell's identity: path choice depends only on
// the cell's own sites and the plan cadence, so equal cells are shared
// across campaigns and sweeps — the incremental-sweep property (a
// one-parameter edit re-executes only its own column).
func campaignIdentity(cfg Config, program string, opts InjectOptions) *runcache.Identity {
	id := cfg.identity("campaign", program).
		Addf("split", "%v", opts.SplitPayload).
		Addf("ckpt", "%d", cfg.CheckpointInterval).
		Addf("ff", "%v", cfg.FastForward)
	if cfg.FastForward {
		// Sampled campaigns report window-relative figures, so a sampled
		// record must not stand in for a full one across warmup leads.
		id.Addf("ffw", "%d", cfg.ffWarmup())
	}
	return id
}

// addWindow extends id with the campaign entry w of sites: every site of
// the window, preceded, for a multi-site window, by its bounds. A one-site
// window adds exactly the site part a per-site campaign always has, so a
// one-site window shares its cell with the per-site campaign; the bounds
// make any other regrouping of the same sites a different key.
func addWindow(id *runcache.Identity, sites []fault.Site, w Window) *runcache.Identity {
	if w.Hi-w.Lo > 1 {
		id.Addf("window", "%d:%d", w.Lo, w.Hi)
	}
	for _, s := range sites[w.Lo:w.Hi] {
		id.AddJSON("site", s)
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

// cachedRun is the cache tier of every result chain. A hit is served as
// stored, except for the trust-but-verify share (cfg.CacheVerify), which
// is recomputed live, counted on the store, compared through the cached
// form and healed on divergence; a miss runs live and fills. form maps a
// live result to the form the cache holds and reports whether it may be
// cached at all (nil: as is). A hit is always served in cache form; a miss
// serves the live result itself. Cache I/O failures degrade to live
// execution; they never fail the run. A live result is stored before
// cachedRun returns, so a caller that reports it afterwards reports a
// durable cell (Put is best-effort: a failed Put only costs a resume the
// rerun of that cell).
func cachedRun[T any](cfg Config, id *runcache.Identity, live func() (T, error), form func(T) (T, bool)) (res T, hit, diverged bool, err error) {
	var stored T
	hit = cfg.Cache.Get(id, &stored)
	if hit && !runcache.ShouldVerify(id, cfg.CacheVerify) {
		return stored, true, false, nil
	}
	res, err = live()
	if err != nil {
		var zero T
		return zero, hit, false, err
	}
	cacheable, ok := res, true
	if form != nil {
		cacheable, ok = form(res)
	}
	if hit {
		diverged = !jsonCacheEqual(cacheable, stored)
		cfg.Cache.CountVerify(diverged)
		res = cacheable
	}
	if ok && (!hit || diverged) {
		// Fill, or heal a diverged entry. A failed write costs a later run
		// this one again, never a result; the store counts it
		// (runcache.Stats.PutErrors).
		_ = cfg.Cache.Put(id, cacheable)
	}
	return res, hit, diverged, nil
}

// cacheForm is the campaign cache tier's form: quarantined records (panic,
// exhausted budget) describe one process's misfortune, not the run's
// deterministic outcome, so they are never cached; retry counts describe
// one process's scheduling luck, so they are stripped.
func cacheForm(rec runRecord) (runRecord, bool) {
	if rec.Failure != nil {
		return rec, false
	}
	rec.Retries = 0
	return rec, true
}
