package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// Parse decodes a JSON job spec, rejects unknown fields with a typed
// *SpecError naming the nearest valid field, normalizes defaults, and
// validates. A body that is not JSON is a *SpecError on "(body)".
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, &SpecError{Field: "(body)", Reason: "empty job spec"}
	}
	var m map[string]any
	if err := json.NewDecoder(bytes.NewReader(trimmed)).Decode(&m); err != nil {
		return nil, &SpecError{Field: "(body)", Reason: "invalid JSON: " + err.Error()}
	}
	for k := range m {
		if !slices.Contains(specFields, k) {
			return nil, &SpecError{Field: k, Reason: "unknown field",
				Suggestion: nearestField(k, specFields)}
		}
	}
	var s Spec
	if err := json.NewDecoder(bytes.NewReader(trimmed)).Decode(&s); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return nil, &SpecError{Field: te.Field, Value: te.Value,
				Reason: fmt.Sprintf("cannot decode %s into %s", te.Value, te.Type)}
		}
		return nil, &SpecError{Field: "(body)", Reason: err.Error()}
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
