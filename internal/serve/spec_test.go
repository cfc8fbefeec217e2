package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseJSONSpec(t *testing.T) {
	spec, err := Parse([]byte(`{
		"type": "campaign",
		"benchmark": "gcc",
		"mode": "srt",
		"instructions": 12000,
		"fault_kind": "transient",
		"tenant": "alice",
		"weight": 3,
		"deadline": "90s",
		"seed": 18446744073709551615
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Benchmark != "gcc" || spec.Mode != "srt" || spec.Instructions != 12000 {
		t.Errorf("core fields: %+v", spec)
	}
	if spec.Tenant != "alice" || spec.Weight != 3 {
		t.Errorf("tenant fields: %+v", spec)
	}
	if time.Duration(spec.Deadline) != 90*time.Second {
		t.Errorf("deadline = %v", time.Duration(spec.Deadline))
	}
	if spec.Seed != 18446744073709551615 {
		t.Errorf("uint64 seed lost precision: %d", spec.Seed)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Type != JobCampaign || spec.Tenant != "default" || spec.Weight != 1 {
		t.Errorf("defaults: %+v", spec)
	}
	if spec.Benchmark == "" || spec.Mode != "blackjack" || spec.Instructions != 30_000 {
		t.Errorf("campaign defaults: %+v", spec)
	}
}

// Unknown fields are rejected with a typed error naming the nearest valid
// field — the admission contract for fat-fingered specs.
func TestUnknownFieldSuggestion(t *testing.T) {
	cases := []struct{ body, field, want string }{
		{`{"benchmrak": "gcc"}`, "benchmrak", "benchmark"},
		{`{"fault_kin": "transient"}`, "fault_kin", "fault_kind"},
		{`{"bnechmark": "gcc"}`, "bnechmark", "benchmark"},
		{`{"run_timeot": "5s"}`, "run_timeot", "run_timeout"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.body))
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *SpecError", c.body, err)
		}
		if se.Field != c.field || se.Suggestion != c.want {
			t.Errorf("%s: got field=%q suggestion=%q, want %q/%q", c.body, se.Field, se.Suggestion, c.field, c.want)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct{ body, field string }{
		{`{"benchmark": "gzp"}`, "benchmark"},
		{`{"mode": "blakjack"}`, "mode"},
		{`{"fault_kind": "permanant"}`, "fault_kind"},
		{`{"sites": "latent", "fault_kind": "transient"}`, "sites"},
		{`{"sites": "laten"}`, "sites"},
		{`{"type": "campain"}`, "type"},
		{`{"cache": "maybe"}`, "cache"},
		{`{"cache_verify": 1.5}`, "cache_verify"},
		{`{"weight": 5000}`, "weight"},
		{`{"retries": 99}`, "retries"},
		{`{"type": "fuzz", "variant": "blackjak"}`, "variant"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.body))
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *SpecError", c.body, err)
		}
		if se.Field != c.field {
			t.Errorf("%s: flagged field %q, want %q (err: %v)", c.body, se.Field, c.field, err)
		}
	}
}

func TestSpecErrorMessageNamesFieldAndSuggestion(t *testing.T) {
	_, err := Parse([]byte(`{"mode": "blackjac"}`))
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	for _, want := range []string{`"mode"`, `"blackjac"`, `did you mean "blackjack"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func TestTypeMismatchIsTyped(t *testing.T) {
	_, err := Parse([]byte(`{"weight": "heavy"}`))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SpecError", err)
	}
	if se.Field != "weight" {
		t.Errorf("field = %q, want weight", se.Field)
	}
}
