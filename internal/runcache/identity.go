// Package runcache provides the on-disk content-addressable run cache and
// the canonical run-identity encoder shared with the journal layer.
//
// A run's identity is the ordered list of `key=value` parts that determine
// its outcome: program generator and seed (or a content fingerprint),
// ISA/pipeline configuration, redundancy variant, fault-site parameters
// (kind/mask/duty/ArmAt), and the fast-forward/checkpoint execution plan.
// The simulator is deterministic by construction (the diffcheck harness
// proves it), so two runs with equal identity produce bit-identical
// outcomes — which is exactly what makes outcome memoization sound.
//
// The same Identity feeds three consumers:
//
//   - Hash64 folds the parts through FNV-64a with NUL separators for the
//     journal header key.
//   - Parts returns the human-readable parts so journal headers can report
//     *which* parameter changed on a resume mismatch.
//   - ID hashes the parts through SHA-256 for cache entry addressing.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Identity is an ordered list of `key=value` parts defining run identity.
// Order matters: callers append parts in a fixed schema order so equal
// configurations always encode to equal identities. The zero value is
// usable.
type Identity struct {
	parts []string
}

// NewIdentity builds an identity from pre-formatted `key=value` parts.
func NewIdentity(parts ...string) *Identity {
	return &Identity{parts: append([]string(nil), parts...)}
}

// Add appends one `key=value` part.
func (id *Identity) Add(key, value string) *Identity {
	id.parts = append(id.parts, key+"="+value)
	return id
}

// Addf appends one part with a fmt.Sprintf-formatted value. Beware of
// encoding structs this way: fmt's %v/%+v verbs prefer a String method
// when one exists, and human-readable labels usually drop fields — use
// AddJSON for anything with a Stringer (or that might grow one).
func (id *Identity) Addf(key, format string, args ...any) *Identity {
	return id.Add(key, fmt.Sprintf(format, args...))
}

// AddJSON appends one part with v's canonical JSON encoding: struct-field
// order, every exported field, immune to lossy String methods. This is
// the required encoding for configuration and fault-site structs —
// fault.Site's human label, for instance, drops the trigger and duty
// fields that distinguish latent sites, so formatting it with %+v made
// distinct sites alias to one cache entry.
func (id *Identity) AddJSON(key string, v any) *Identity {
	b, err := json.Marshal(v)
	if err != nil {
		return id.Addf(key, "%#v", v) // unreachable for plain config structs
	}
	return id.Add(key, string(b))
}

// Parts returns a copy of the ordered `key=value` parts.
func (id *Identity) Parts() []string {
	return append([]string(nil), id.parts...)
}

// Hash64 folds the parts through FNV-64a with NUL separators between
// parts: the journal header key.
func (id *Identity) Hash64() uint64 {
	h := fnv.New64a()
	for _, p := range id.parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// ID returns the SHA-256 hex digest of the NUL-separated parts: the cache
// entry address. The format epoch is deliberately NOT folded in — entries
// carry the epoch in their envelope, so an epoch bump invalidates stale
// entries in place instead of stranding them until GC.
func (id *Identity) ID() string {
	h := sha256.New()
	for _, p := range id.parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DiffParts compares two part lists and describes the first difference in
// human terms ("" when identical). It powers ErrKeyMismatch diagnostics:
// the journal header records Parts so resume can say which parameter
// changed instead of only that the folded keys differ.
func DiffParts(have, want []string) string {
	n := len(have)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if have[i] != want[i] {
			return fmt.Sprintf("parameter changed: file has %q, workload has %q", have[i], want[i])
		}
	}
	switch {
	case len(have) < len(want):
		return fmt.Sprintf("workload adds parameter %q", want[n])
	case len(have) > len(want):
		return fmt.Sprintf("file has extra parameter %q", have[n])
	}
	return ""
}
