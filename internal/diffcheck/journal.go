package diffcheck

import (
	"fmt"

	"blackjack/internal/journal"
	"blackjack/internal/runcache"
)

// fuzzRecord is one completed fuzz program as journaled: everything the
// program contributed to the session summary, so a resumed session's
// summary is identical to an uninterrupted one. The program itself is not
// stored — it regenerates deterministically from (campaign seed, index) —
// but the minimized reproducer's wire form is, so resume never re-runs a
// delta-debugging session.
type fuzzRecord struct {
	Seed        uint64       `json:"seed"`
	Source      string       `json:"source"`
	Runs        int          `json:"runs"`
	Shuffles    uint64       `json:"shuffles"`
	Entries     uint64       `json:"entries"`
	Divergences []Divergence `json:"divergences,omitempty"`
	Minimized   []byte       `json:"minimized,omitempty"`
}

// fuzzJournalVersion is bumped when fuzzRecord or the identity schema
// changes incompatibly. v2: keys fold through the canonical runcache
// identity encoder and headers record the human-readable parts.
const fuzzJournalVersion = 2

// openJournal opens (creating or resuming) o.JournalPath for the session
// about to run on o (withDefaults applied), or returns nil when the path is
// empty. The key covers everything that defines program identity and
// check behavior — machine config, campaign seed, per-run budget, variant
// restriction, shrink settings — so a journal written for any other
// session is refused with journal.ErrKeyMismatch; it deliberately leaves
// out the program count and worker count: per-program seeds derive from
// the campaign seed, so a session journaled with -n 100 resumes (and
// extends) under -n 1000. With o.OnProgress set, every append is fsync'd
// before Append returns, as for a campaign (sim.Config.JournalPath).
func (o FuzzOptions) openJournal() (*journal.Journal[fuzzRecord], error) {
	if o.JournalPath == "" {
		return nil, nil
	}
	variant := "all"
	if o.Variant != nil {
		variant = o.Variant.Name
	}
	id := runcache.NewIdentity().
		AddJSON("machine", o.Machine).
		Addf("seed", "%d", o.Seed).
		Addf("maxinstr", "%d", o.MaxInstr).
		Add("variant", variant).
		Addf("shrink", "%v/%d", o.Shrink, o.ShrinkTests)
	j, _, err := journal.Open[fuzzRecord](o.JournalPath, journal.Header{
		Kind: "fuzz", Key: id.Hash64(), Version: fuzzJournalVersion,
		Parts: id.Parts(),
	})
	if err == nil && o.OnProgress != nil {
		j.SetSyncEvery(1)
	}
	return j, err
}

// harnessVariant labels divergences that come from the checking machinery
// itself (a panic in a variant run), not from a specific machine variant.
const harnessVariant = "harness"

// panicDivergence converts a recovered panic into a reportable finding: a
// panicking check is a harness bug worth a minimized reproducer, not a
// reason to lose the rest of the session.
func panicDivergence(r any) Divergence {
	return Divergence{
		Variant: harnessVariant,
		Kind:    "panic",
		Detail:  fmt.Sprintf("%v", r),
	}
}
