// Package bpred implements the gshare branch direction predictor used by the
// leading (and single) thread. The trailing thread never predicts: in SRT and
// BlackJack it consumes leading branch outcomes (BOQ / DTQ program order), so
// only the leading thread exercises this structure — exactly as in the paper.
//
// Branch targets in this ISA are encoded in the instruction, so no BTB is
// modeled: the fetch stage already holds the decoded target. Only direction
// prediction can be wrong.
//
// The global history register is updated speculatively at predict time with
// the predicted direction; each prediction carries a Lookup token holding the
// consulted table index and the pre-prediction history, so resolution trains
// exactly the entry it read and repairs the history on a misprediction.
package bpred

import "bytes"

// Config sizes the predictor.
type Config struct {
	// HistoryBits is the global-history length; the pattern table has
	// 1<<HistoryBits two-bit counters.
	HistoryBits int
}

// DefaultConfig returns a 12-bit gshare (4096 counters).
func DefaultConfig() Config { return Config{HistoryBits: 12} }

// Lookup is one prediction's token: the predicted direction plus the state
// needed to train and repair at resolution.
type Lookup struct {
	Taken bool
	idx   uint64
	hist  uint64
}

// Predictor is a gshare direction predictor. The zero value is unusable;
// construct with New.
type Predictor struct {
	counters []uint8 // 2-bit saturating counters, initialized weakly taken
	history  uint64
	mask     uint64

	predicts    uint64
	mispredicts uint64
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{}
	p.Init(cfg)
	return p
}

// Init resets p to a fresh predictor, reusing its pattern table when the
// size is unchanged: New is Init on a zero Predictor.
func (p *Predictor) Init(cfg Config) {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 24 {
		cfg = DefaultConfig()
	}
	n := 1 << cfg.HistoryBits
	if len(p.counters) != n {
		p.counters = make([]uint8, n)
	}
	for i := range p.counters {
		p.counters[i] = 2 // weakly taken
	}
	*p = Predictor{counters: p.counters, mask: uint64(n - 1)}
}

// Predict returns the prediction token for the branch at pc, speculatively
// shifting the predicted direction into the global history.
func (p *Predictor) Predict(pc int) Lookup {
	p.predicts++
	idx := (uint64(pc) ^ p.history) & p.mask
	l := Lookup{Taken: p.counters[idx] >= 2, idx: idx, hist: p.history}
	p.history = (p.history << 1) & p.mask
	if l.Taken {
		p.history |= 1
	}
	return l
}

// Update trains the entry the prediction consulted with the resolved
// direction. On a misprediction the global history is repaired to the
// pre-prediction value extended with the actual outcome (the pipeline squashes
// every younger — hence wrong-path — prediction, so the repaired history is
// the correct-path history).
func (p *Predictor) Update(l Lookup, taken bool) {
	if taken {
		if p.counters[l.idx] < 3 {
			p.counters[l.idx]++
		}
	} else if p.counters[l.idx] > 0 {
		p.counters[l.idx]--
	}
	if taken != l.Taken {
		p.mispredicts++
		p.history = (l.hist << 1) & p.mask
		if taken {
			p.history |= 1
		}
	}
}

// Stats returns (predictions made, mispredictions recorded).
func (p *Predictor) Stats() (predicts, mispredicts uint64) {
	return p.predicts, p.mispredicts
}

// CopyFrom makes p an independent deep copy of src (pattern table, global
// history and statistics), reusing p's pattern table.
func (p *Predictor) CopyFrom(src *Predictor) {
	counters := append(p.counters[:0], src.counters...)
	*p = *src
	p.counters = counters
}

// Equal reports whether p and o hold the same counters, history and
// statistics, so they predict identically from here on.
func (p *Predictor) Equal(o *Predictor) bool {
	return p.history == o.history && p.mask == o.mask &&
		p.predicts == o.predicts && p.mispredicts == o.mispredicts &&
		bytes.Equal(p.counters, o.counters)
}
